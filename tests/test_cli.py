import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverdec as qd
from quiverdec import oracle
from quiverdec.cli import main, parse_quiver_file
from quiverdec.quiver_core import parse_rational

KRONECKER = qd.fixture_path("kronecker.json")
JORDAN = qd.fixture_path("jordan.json")
A2 = qd.fixture_path("a2.json")
EX4 = qd.fixture_path("ex4.json")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_quiver_file():
    q = parse_quiver_file(KRONECKER)
    assert q.vertices == ("0", "1")
    assert len(q.arrows) == 2
    with pytest.raises(ValueError, match="cannot read"):
        parse_quiver_file("/nonexistent/quiver.json")


def test_parse_quiver_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a"], "arrows": [["a", "z"]]}')
    with pytest.raises(ValueError, match="undeclared"):
        parse_quiver_file(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "arrows": [["a", "b"]]}')
    with pytest.raises(ValueError):
        parse_quiver_file(str(empty))


def test_decompose_json(capsys):
    rc, out, _ = run(
        capsys, "decompose", "--quiver", KRONECKER, "--lambda", "0,0",
        "--alpha", "2,3", "--json",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["terms"][0] == {
        "sigma": [1, 1], "m": 2, "class": "IsotropicImaginary", "p": 1,
        "factor": "Kleinian(A1)",
    }
    assert data["terms"][1]["sigma"] == [0, 1]
    assert data["terms"][1]["m"] == 1


def test_reflect_chain(capsys):
    rc, out, _ = run(
        capsys, "reflect", "--quiver", EX4, "--lambda", "0,1,-2,1",
        "--alpha", "1,3,2,1", "--seq", "2,3,4,2",
    )
    assert rc == 0
    assert "((1,-1,-1,2),(1,1,2,1))" in out
    assert out.strip().endswith("((0,1,1,-2),(1,0,0,0))")


def test_reflect_json_round_trip(capsys):
    rc, out, _ = run(
        capsys, "reflect", "--quiver", EX4, "--lambda", "0,1,-2,1",
        "--alpha", "1,3,2,1", "--seq", "2,3,4,2", "--json",
    )
    data = json.loads(out)
    assert [s["vertex"] for s in data["steps"]] == [None, "2", "3", "4", "2"]
    assert data["steps"][-1] == {
        "vertex": "2", "lambda": [0, 1, 1, -2], "alpha": [1, 0, 0, 0],
    }


def test_sigma_membership(capsys):
    rc, out, _ = run(
        capsys, "sigma", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,3,2,1"
    )
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = run(
        capsys, "sigma", "--quiver", EX4, "--lambda", "0,1,-2,1", "--bound", "0,1,1,1",
        "--json",
    )
    assert rc == 0
    assert json.loads(out)["sigma"] == [[0, 1, 1, 1]]


def test_sigma_usage_error(capsys):
    rc, out, err = run(capsys, "sigma", "--quiver", EX4, "--lambda", "0,1,-2,1")
    assert (rc, out) == (2, "") and "error: one of the arguments --alpha --bound is required" in err


def test_sigma_takes_alpha_or_bound_not_both(capsys):
    rc, out, err = run(capsys, "sigma", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,3,2,1",
                       "--bound", "1,1,1,1")
    assert (rc, out) == (2, "") and "error: argument --bound: not allowed with argument --alpha" in err


def test_sigma_below_a_negative_bound_lists_nothing(capsys):
    assert run(capsys, "sigma", "--quiver", KRONECKER, "--lambda", "0,0", "--bound", "-1,2") == (0, "", "")
    assert qd.sigma_lambda_upto(qd.LambdaContext(qd.load_fixture("kronecker.json"), (0, 0)), (-1, 2)) == ()


CAP_SETTINGS = [("--max-box", "QUIVERDEC_MAX_BOX"), ("--max-sum", "QUIVERDEC_MAX_SUM")]


@pytest.mark.parametrize("flag, env", CAP_SETTINGS)
@pytest.mark.parametrize("argv", [
    ("classify", "--quiver", KRONECKER),
    ("classify", "--quiver", KRONECKER, "--alpha", "1,1"),
    ("reflect", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,3,2,1", "--seq", "2"),
])
@pytest.mark.parametrize("value", ["5", "0", "-3"])
def test_commands_that_enumerate_no_box_take_no_cap(capsys, monkeypatch, argv, flag, env, value):
    rc, out, err = run(capsys, *argv, flag, value)
    assert (rc, out) == (2, "") and f"error: unrecognized arguments: {flag} {value}" in err
    assert err.startswith(f"usage: quiverdec {argv[0]} ")
    assert "Traceback" not in err
    monkeypatch.setenv(env, value)  # not read
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("flag, env", CAP_SETTINGS)
@pytest.mark.parametrize("argv", [
    ("roots", "--quiver", KRONECKER, "--bound", "1,1"),
    ("sigma", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,3,2,1"),
    ("decompose", "--quiver", KRONECKER, "--lambda", "0,0", "--alpha", "1,1"),
    ("verify",),
])
def test_commands_that_enumerate_a_box_take_both_caps(capsys, monkeypatch, argv, flag, env):
    rc, out, err = run(capsys, *argv, flag, "0")
    assert (rc, out) == (2, "") and "must be a positive integer" in err
    monkeypatch.setenv(env, "0")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and env in err


def test_classify(capsys):
    rc, out, _ = run(capsys, "classify", "--quiver", KRONECKER, "--alpha", "1,1", "--json")
    data = json.loads(out)
    assert data == {"alpha": [1, 1], "class": "IsotropicImaginary", "q": 0, "p": 1}
    rc, out, _ = run(capsys, "classify", "--quiver", JORDAN, "--json")
    assert json.loads(out) == {"kind": "ExtendedDynkin", "delta": [1], "extending": ["0"]}


def test_roots_with_weight_filter(capsys):
    rc, out, _ = run(
        capsys, "roots", "--quiver", A2, "--bound", "1,1", "--lambda", "1,-1", "--json"
    )
    assert json.loads(out)["roots"] == [[1, 1]]


def test_exit_codes(capsys):
    rc, _, err = run(capsys, "decompose", "--quiver", A2, "--lambda", "1,-1", "--alpha", "1,0")
    assert rc == 1 and "error" in err
    rc, _, err = run(capsys, "roots", "--quiver", KRONECKER, "--bound", "50,50")
    assert rc == 3
    rc = main(["decompose", "--quiver", KRONECKER, "--lambda", "0,0"])
    assert rc == 2  # missing --alpha
    rc = main(["not-a-command"])
    assert rc == 2


@pytest.mark.parametrize("tail", [
    ("decompose", "--alpha", "1,1"), ("reflect", "--alpha", "1,1", "--seq", "0"),
    ("sigma", "--alpha", "1,1"), ("sigma", "--bound", "2,2"), ("roots", "--bound", "2,2"),
])
def test_weights_beyond_the_digit_limit_are_refused(capsys, tail):
    rc, out, err = run(capsys, tail[0], "--quiver", KRONECKER, "--lambda=1e-5000,-1e-5000", *tail[1:])
    assert (rc, out, err) == (1, "", "error: not a rational: '1e-5000'\n")


@pytest.mark.parametrize("argv", [
    ("decompose", "--quiver", KRONECKER, "--lambda", "-1,1", "--alpha", "1,1"),
    ("decompose", "--quiver", EX4, "--lambda", "-1/2,1,-2,3/2", "--alpha", "1,3,2,1", "--json"),
    ("roots", "--quiver", KRONECKER, "--bound", "2,2", "--lambda", "-1,1"),
    ("roots", "--quiver", KRONECKER, "--bound", "-1,2"),
    ("classify", "--quiver", KRONECKER, "--alpha", "-1,0"),
    ("sigma", "--quiver", EX4, "--lambda", "-1,1,0,0", "--alpha", "1,1,0,0"),
    ("decompose", "--quiver", KRONECKER, "--lambda", "-.5,.5", "--alpha", "1,1"),
])
def test_negative_vector_values(capsys, argv):
    glued = list(argv)
    i = next(i for i, tok in enumerate(glued) if tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == "."))
    glued[i - 1:i + 1] = [f"{glued[i - 1]}={glued[i]}"]
    rc, out, err = run(capsys, *argv)
    assert "expected one argument" not in err
    assert (rc, out) == run(capsys, *glued)[:2]


def test_resource_limits_name_the_setting(capsys):
    rc, _, err = run(capsys, "roots", "--quiver", KRONECKER, "--bound", "30,30")
    assert rc == 3 and "(max_bound_sum, QUIVERDEC_MAX_SUM, --max-sum)" in err
    rc, _, err = run(capsys, "roots", "--quiver", KRONECKER, "--bound", "3,3", "--max-box", "4")
    assert rc == 3 and "(max_box_volume, QUIVERDEC_MAX_BOX, --max-box)" in err


def test_huge_quiver_gets_an_answer_or_the_cap(tmp_path, capsys):
    # a path of 1,500 vertices with three adjacent vertices of positive bound:
    # an answer or the cap's refusal, never a RecursionError
    n, first = 1500, 700
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(n)],
                                "arrows": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)]}))
    q = parse_quiver_file(str(path))

    def placed(small):
        return tuple(small[i - first] if first <= i < first + 3 else 0 for i in range(n))

    roots = tuple(sorted(map(placed, qd.positive_roots_upto(qd.dynkin_quiver("A3"), (1, 1, 1)))))
    assert len(roots) == 6 and qd.positive_roots_upto(q, placed((1, 1, 1))) == roots
    rc, out, err = run(capsys, "roots", "--quiver", str(path), "--bound", ",".join(map(str, placed((1, 1, 1)))))
    assert (rc, err) == (0, "") and out.splitlines() == [",".join(map(str, b)) for b in roots]
    rc, out, err = run(capsys, "roots", "--quiver", str(path), "--bound", ",".join(map(str, placed((9, 9, 9)))))
    assert (rc, out) == (3, "") and "bound sum 27 exceeds cap 24 (max_bound_sum" in err


def test_over_cap_decompose_answers_after_descent(capsys):
    rc, out, _ = run(capsys, "decompose", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "4,12,8,4")
    assert rc == 0
    assert out.splitlines() == [
        "alpha: [4, 12, 8, 4]",
        "dimension: 0",
        "  4 x (1, 3, 2, 1)  class=Real  p=0  factor=Point",
        "formula: point",
    ]
    # (1,0,8,16) is orthogonal to the weight and descends to a negative entry; (0,30,0,0) is not orthogonal
    rc, out, err = run(capsys, "decompose", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,0,8,16")
    assert (rc, out, err) == (1, "", "error: (1, 0, 8, 16) reflects along 4 to (1, 0, 8, -8)\n")
    rc, out, err = run(capsys, "decompose", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "0,30,0,0")
    assert (rc, out, err) == (1, "", "error: (0, 30, 0, 0) is not a sum of orthogonal positive roots\n")
    rc, out, err = run(capsys, "decompose", "--quiver", EX4, "--lambda", "0,0,0,0", "--alpha", "4,12,8,4")
    assert rc == 3 and out == "" and "(max_bound_sum, QUIVERDEC_MAX_SUM, --max-sum)" in err


def test_over_cap_vector_off_the_weight_is_a_non_member_without_a_box(capsys):
    # the one loop admits no reflection: at weight 1 the pairing alone answers, at weight 0 the cap refuses
    rc, out, err = run(capsys, "decompose", "--quiver", JORDAN, "--lambda", "1", "--alpha", "100")
    assert (rc, out, err) == (1, "", "error: (100,) is not a sum of orthogonal positive roots\n")
    assert run(capsys, "sigma", "--quiver", JORDAN, "--lambda", "1", "--alpha", "100") == (0, "false\n", "")
    rc, out, err = run(capsys, "decompose", "--quiver", JORDAN, "--lambda", "0", "--alpha", "100")
    assert rc == 3 and out == "" and "bound sum 100 exceeds cap 24" in err


def test_json_determinism(capsys):
    args = ("decompose", "--quiver", EX4, "--lambda", "0,1,-2,1", "--alpha", "1,4,3,2", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_caps_flag(capsys):
    rc, _, err = run(
        capsys, "roots", "--quiver", KRONECKER, "--bound", "3,3", "--max-box", "4"
    )
    assert rc == 3


def test_sum_cap_from_environment(capsys, monkeypatch):
    argv = ("decompose", "--quiver", JORDAN, "--lambda", "0", "--alpha", "1200")
    monkeypatch.setenv("QUIVERDEC_MAX_SUM", "1200")
    rc, out, _ = from_env = run(capsys, *argv)
    assert rc == 0
    assert out.splitlines()[-1] == "formula: S^1200 N((0),(1))"
    # --max-sum gives the same answer, and overrides the environment as --max-box does
    monkeypatch.delenv("QUIVERDEC_MAX_SUM")
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, "--max-sum", "1200") == from_env
    monkeypatch.setenv("QUIVERDEC_MAX_SUM", "24")
    assert run(capsys, *argv, "--max-sum", "1200") == from_env


@pytest.mark.parametrize("flag, field", [("--max-box", "max_box_volume"), ("--max-sum", "max_bound_sum")])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_cap_flags_are_usage_errors(capsys, flag, field, value):
    rc, out, err = run(capsys, "decompose", "--quiver", JORDAN, "--lambda", "0", "--alpha", "1", f"{flag}={value}")
    assert (rc, out) == (2, "") and f"{field} must be a positive integer" in err


@pytest.mark.parametrize("env", ["QUIVERDEC_MAX_BOX", "QUIVERDEC_MAX_SUM"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", "", pytest.param("9" * 5000, id="5000-nines")])
def test_bad_cap_values_are_usage_errors(capsys, monkeypatch, env, value):
    monkeypatch.setenv(env, value)
    rc, out, err = run(capsys, "decompose", "--quiver", KRONECKER, "--lambda", "0,0", "--alpha", "1,1")
    assert rc == 2 and out == ""
    assert env in err and "positive integer" in err


def test_caps_reject_nonpositive_limits(capsys):
    for field in ("max_box_volume", "max_bound_sum"):
        for value in (0, -1, True, False, 2.0):
            with pytest.raises(qd.InvalidCaps, match=field):
                qd.Caps(**{field: value})
    rc, _, err = run(capsys, "roots", "--quiver", KRONECKER, "--bound", "1,1", "--max-box", "0")
    assert rc == 2 and "max_box_volume" in err


# (lemma, instances_checked, info) of each report of the default verify suite
VERIFY_SUITE = [
    ("deltasum", 3, {"m": 2, "delta": [1, 1]}),
    ("deltasum", 3, {"m": 2, "delta": [1, 1, 1]}),
    ("dynkvec", 6, {"roots": 1}),
    ("dynkvec", 48, {"roots": 3}),
    ("dynkvec", 342, {"roots": 6}),
    ("dynkvec", 2400, {"roots": 10}),
    ("dynkvec", 2400, {"roots": 12}),
    ("rootineq", 0, {"alpha": [1, 3, 2, 1], "j": "1", "k": "2"}),
    ("rootineq", 2, {"alpha": [1, 0, 0, 0], "j": "1", "k": "2"}),
    ("maincase", 2, {
        "with_qualifying_m": [{"alpha": [1, 0, 0, 0], "m": 0}], "without_qualifying_m": [[1, 3, 2, 1]],
        "j": "1", "k": "2", "delta": [0, 1, 1, 1], "m_max": 6,
    }),
    ("support_split", 2, {"alpha": [1, 1, 1, 1], "side_j": ["j1", "j2"], "side_k": ["k1", "k2"]}),
    ("support_split", 2, {"alpha": [1, 2, 2], "side_j": ["j"], "side_k": ["k0", "k1"]}),
    ("support_split", 2, {"alpha": [1, 1, 2], "side_j": ["a", "b"], "side_k": ["c"]}),
]


def test_verify_runs_clean(capsys):
    rc, out, _ = run(capsys, "verify", "--json")
    assert rc == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)
    assert [(r["lemma"], r["instances_checked"], r["info"]) for r in reports] == VERIFY_SUITE
    assert [(r.lemma, r.instances_checked, r.info) for r in oracle.default_suite(qd.DEFAULT_CAPS)] == VERIFY_SUITE
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", r["lemma"]] for r in reports]


def test_commands_other_than_verify_do_not_load_the_oracle():
    source = str(Path(qd.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from quiverdec import cli\n"
        "assert 'quiverdec.oracle' not in sys.modules\n"
        f"assert cli.main(['decompose', '--quiver', {EX4!r}, '--lambda', '0,1,-2,1', '--alpha', '1,3,2,1']) == 0\n"
        f"assert cli.main(['sigma', '--quiver', {KRONECKER!r}, '--lambda', '0,0', '--bound', '2,2']) == 0\n"
        "assert 'quiverdec.oracle' not in sys.modules\n"
        "assert cli.main(['verify']) == 0\n"
        "assert 'quiverdec.oracle' in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_reports_a_counterexample(capsys, monkeypatch):
    from quiverdec import oracle

    failing = oracle.CheckReport("dynkvec", 1, [{"alpha": [1, 2]}])
    monkeypatch.setattr(oracle, "check_dynkvec", lambda q, bound: failing)
    rc, out, _ = run(capsys, "verify")
    assert rc == 1
    assert "FAIL  dynkvec        instances=1" in out
    assert "      counterexample: {'alpha': [1, 2]}" in out.splitlines()
    rc, out, _ = run(capsys, "verify", "--json")
    assert rc == 1 and [r["passed"] for r in json.loads(out)].count(False) == 5


def test_decompose_nonisotropic_block(capsys, tmp_path):
    k3 = tmp_path / "k3.json"
    k3.write_text('{"vertices": ["0", "1"], "arrows": [["0", "1"], ["0", "1"], ["0", "1"]]}')
    rc, out, _ = run(capsys, "decompose", "--quiver", str(k3), "--lambda", "0,0", "--alpha", "2,2")
    assert rc == 0
    lines = out.splitlines()
    assert "dimension: 10" in lines
    assert "  1 x (2, 2)  class=NonIsotropicImaginary  p=5  factor=NonIsotropicBlock" in lines
    assert "formula: N((0,0),(2,2))" in lines


@pytest.mark.parametrize("path, bound, lam", [
    (EX4, "2,4,3,2", "0,1,-2,1"),
    (EX4, "2,4,3,2", "1/2,-1/3,1/5,0"),
    (KRONECKER, "3,3", "-1,1"),
    (A2, "2,2", "0,0"),
    (JORDAN, "4", "1"),
])
def test_roots_lambda_keeps_the_orthogonal_unweighted_roots_in_lex_order(capsys, path, bound, lam):
    weight = [parse_rational(x) for x in lam.split(",")]
    rc, out, _ = run(capsys, "roots", "--quiver", path, "--bound", bound, "--json")
    assert rc == 0
    data = json.loads(out)
    data["roots"] = [b for b in data["roots"] if qd.lambda_dot(weight, b) == 0]
    rc, out, _ = run(capsys, "roots", "--quiver", path, "--bound", bound, f"--lambda={lam}", "--json")
    assert (rc, json.loads(out)) == (0, data)
    rc, out, _ = run(capsys, "roots", "--quiver", path, "--bound", bound, f"--lambda={lam}")
    assert (rc, out) == (0, "".join(",".join(map(str, b)) + "\n" for b in data["roots"]))


@pytest.mark.parametrize("bound, code", [("30,30", 3), ("-1,2", 1)])
def test_roots_lambda_refuses_a_bound_as_roots_does(capsys, bound, code):
    plain = run(capsys, "roots", "--quiver", KRONECKER, "--bound", bound)
    assert plain[0] == code and plain[1] == ""
    assert run(capsys, "roots", "--quiver", KRONECKER, "--bound", bound, "--lambda", "1,-1") == plain


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_at_once_gets_exit_1_and_no_traceback(unbuffered):
    # unbuffered, the write inside print fails; buffered, the output first meets the pipe at main's flush
    source = str(Path(qd.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "quiverdec.cli", "verify", "--json"], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_long_descent_to_a_negative_entry_prints_a_short_error(capsys):
    # (20001,19999) is orthogonal to (19999,-20001), so it descends
    rc, out, err = run(capsys, "decompose", "--quiver", KRONECKER, "--lambda", "19999,-20001", "--alpha", "20001,19999")
    assert (rc, out) == (1, "")
    assert len(err.encode()) < 1024 and err.startswith("error: (20001, 19999) reflects along 0,1,0,1,")
    assert err.endswith(",… (10000 reflections) to (1, -1)\n")
