"""Command-line front end.

Subcommands: classify, roots, sigma, decompose, reflect, verify. Inputs
are a quiver JSON file plus comma-separated vectors; weights accept exact
"p/q" entries. Only roots, sigma, decompose and verify, which enumerate
boxes, take the cap flags --max-box and --max-sum; sigma takes exactly one
of --alpha and --bound. Exit codes: 0 success (and, for verify, all checks
passing), 1 domain errors, 2 usage errors, 3 resource limits. JSON output
is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .caps import Caps
from .decomposer import _format_vector, product_structure_report
from .errors import InvalidCaps, QuiverdecError, ResourceLimit
from .lambda_roots import LambdaContext, in_sigma_lambda, sigma_lambda_upto
from .quiver_core import (
    Quiver,
    dim_vector,
    p_form,
    parse_quiver_json,
    parse_rational,
    q_form,
)
from .reflection_walk import apply_sequence, make_pair, trace_to_json
from .root_system import classify_root, classify_shape, positive_roots_upto


def parse_quiver_file(path: str) -> Quiver:
    """Load and validate a quiver JSON file, reporting file context on errors."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read quiver file {path!r}: {exc}") from None
    try:
        return parse_quiver_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_int_csv(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer vector, got {text!r}") from None


def _parse_weight_csv(text: str) -> list:
    return [parse_rational(tok) for tok in text.split(",")]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _format_pair(state) -> str:
    return f"({_format_vector(state.weight)},{_format_vector(state.dim)})"


def _caps_from_args(args) -> Caps:
    flags = {"max_box_volume": args.max_box, "max_bound_sum": args.max_sum}
    return replace(Caps.from_env(), **{k: v for k, v in flags.items() if v is not None})


def _cmd_classify(args) -> int:
    q = parse_quiver_file(args.quiver)
    if args.alpha is None:
        shape = classify_shape(q)
        _emit(args, shape.to_json_dict(), [
            f"kind: {shape.kind.value}",
            f"delta: {list(shape.delta) if shape.delta else None}",
            f"extending: {list(shape.extending) if shape.extending else None}",
        ])
        return 0
    a = dim_vector(q, _parse_int_csv(args.alpha))
    cls = classify_root(q, a)
    payload = {"alpha": list(a), "class": cls.value, "q": q_form(q, a), "p": p_form(q, a)}
    _emit(args, payload, [f"class: {cls.value}", f"q: {payload['q']}", f"p: {payload['p']}"])
    return 0


def _cmd_roots(args) -> int:
    q = parse_quiver_file(args.quiver)
    caps = _caps_from_args(args)
    bound = dim_vector(q, _parse_int_csv(args.bound))
    if args.weight is None:
        roots = positive_roots_upto(q, bound, caps)
    else:
        roots = sorted(LambdaContext(q, _parse_weight_csv(args.weight), caps).orthogonal_roots_upto(bound))
    payload = {"bound": list(bound), "roots": [list(b) for b in roots]}
    _emit(args, payload, [",".join(str(x) for x in b) for b in roots])
    return 0


def _cmd_sigma(args) -> int:
    q = parse_quiver_file(args.quiver)
    ctx = LambdaContext(q, _parse_weight_csv(args.weight), _caps_from_args(args))
    if args.alpha is not None:
        a = dim_vector(q, _parse_int_csv(args.alpha))
        member = in_sigma_lambda(ctx, a)
        _emit(args, {"alpha": list(a), "in_sigma": member}, ["true" if member else "false"])
        return 0
    bound = dim_vector(q, _parse_int_csv(args.bound))
    members = sigma_lambda_upto(ctx, bound)
    payload = {"bound": list(bound), "sigma": [list(b) for b in members]}
    _emit(args, payload, [",".join(str(x) for x in b) for b in members])
    return 0


def _cmd_decompose(args) -> int:
    q = parse_quiver_file(args.quiver)
    ctx = LambdaContext(q, _parse_weight_csv(args.weight), _caps_from_args(args))
    a = dim_vector(q, _parse_int_csv(args.alpha))
    report = product_structure_report(ctx, a)
    payload = report.to_json_dict()
    lines = [f"alpha: {list(report.decomposition.total)}", f"dimension: {payload['dimension']}"]
    lines += [f"  {t['m']} x {tuple(t['sigma'])}  class={t['class']}  p={t['p']}  factor={t['factor']}"
              for t in payload["terms"]]
    _emit(args, payload, lines + [f"formula: {payload['formula']}"])
    return 0


def _cmd_reflect(args) -> int:
    q = parse_quiver_file(args.quiver)
    pair = make_pair(q, _parse_weight_csv(args.weight), _parse_int_csv(args.alpha))
    seq = [tok.strip() for tok in args.seq.split(",")] if args.seq else []
    final, trace = apply_sequence(q, pair, seq)
    payload = {"steps": trace_to_json(trace)}
    lines = [f"start: {_format_pair(trace[0].state)}"]
    for step in trace[1:]:
        lines.append(f"  ~{step.vertex}~> {_format_pair(step.state)}")
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    # imported here, so the commands other than verify never load the oracle
    from . import oracle

    reports = oracle.default_suite(_caps_from_args(args))
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.lemma:<14} instances={r.instances_checked}  elapsed={r.elapsed:.2f}s")
            for ce in r.counterexamples:
                print(f"      counterexample: {ce}")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdec",
        description="Root-system combinatorics and canonical decompositions for quiver reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, quiver=True, caps=True):
        p.set_defaults(func=func, parser=p)  # main reports an argument p does not take under p's usage
        if quiver:
            p.add_argument("--quiver", required=True, help="path to a quiver JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if caps:  # only the commands that enumerate a box
            p.add_argument("--max-box", type=int, default=None, help="override the box volume cap")
            p.add_argument("--max-sum", type=int, default=None, help="override the box entry-sum cap")

    p = sub.add_parser("classify", help="classify a dimension vector, or the quiver shape")
    common(p, _cmd_classify, caps=False)
    p.add_argument("--alpha", help="dimension vector, comma separated")

    p = sub.add_parser("roots", help="positive roots below a bound")
    common(p, _cmd_roots)
    p.add_argument("--bound", required=True)
    p.add_argument("--lambda", dest="weight", default=None, help="keep only roots orthogonal to this weight")

    p = sub.add_parser("sigma", help="Sigma membership or enumeration")
    common(p, _cmd_sigma)
    p.add_argument("--lambda", dest="weight", required=True)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--alpha", help="test this dimension vector for membership")
    one.add_argument("--bound", help="list the members componentwise below this vector")

    p = sub.add_parser("decompose", help="canonical decomposition and product structure")
    common(p, _cmd_decompose)
    p.add_argument("--lambda", dest="weight", required=True)
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("reflect", help="apply a sequence of admissible reflections")
    common(p, _cmd_reflect, caps=False)
    p.add_argument("--lambda", dest="weight", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--seq", required=True, help="vertices to reflect at, comma separated")

    p = sub.add_parser("verify", help="run the exhaustive lemma checks")
    common(p, _cmd_verify, quiver=False)

    return parser


_VECTOR_FLAGS = ("--lambda", "--alpha", "--bound")


def _glue_vector_values(argv) -> list[str]:
    """Write ``--lambda -1,1`` as ``--lambda=-1,1``: argparse reads ``-1,1`` or ``-.5,.5`` as a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VECTOR_FLAGS and tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == "."):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(_glue_vector_values(sys.argv[1:] if argv is None else argv))
        if extra:  # argparse leaves them to the root parser, whose usage names no subcommand
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # stdout goes to devnull, so that the output still buffered drops silently
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (QuiverdecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimit) else 2 if isinstance(exc, InvalidCaps) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
