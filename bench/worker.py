"""One workload in one process: set up, run whole rounds for a time, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. Prints one JSON object as its last line of standard output.

Modes:
  setup     set up, report the set-up time and exit;
  run       set up, time rounds for ``--seconds``, read peak memory, check;
  trace     set up a second, traced copy of the workload and alternate
            untraced and traced rounds; report per-layer values per traced
            round and the tracing overhead;
  selftest  run one round, check it, then check that each workload's
            checker rejects one deliberately altered answer.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import quiverdec  # set-up covers this import

from tracing import Tracer
from workloads import WORKLOADS


class Run:
    """Whole rounds of one workload: each input's best time, failures, answers.

    The first round's answers are kept for the checks; every later round's
    are compared with them and dropped, so memory does not grow with the
    number of rounds.
    """

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.best: dict[str, float] = {}  # op name -> fastest wall time in the run
        self.failures: dict[str, int] = {}
        self.first: dict | None = None  # op name -> answer, from the first round
        self.mismatches: list[str] = []
        self.rounds = self.attempted = 0

    def round(self):
        clock, tracer = time.perf_counter, self.tracer
        results = {}
        gen = self.workload.round()
        try:
            op = next(gen)
            while True:
                if tracer is not None:
                    tracer.op = self.attempted
                t0 = clock()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # a failed op is counted and named, not fatal
                    result, error = None, exc
                elapsed = clock() - t0
                self.attempted += 1
                if error is None:
                    self.best[op.name] = min(elapsed, self.best.get(op.name, elapsed))
                    results[op.name] = result
                else:
                    key = f"{op.name}: {type(error).__name__}: {error}"
                    self.failures[key] = self.failures.get(key, 0) + 1
                op = gen.send(result)
        except StopIteration:
            pass
        answers = {name: self.workload.answer(name, r) for name, r in results.items()}
        if self.first is None:
            self.first = answers
        else:
            self.mismatches += [f"{name}: round {self.rounds} answered differently from round 0"
                                for name, data in answers.items()
                                if name in self.first and data != self.first[name]]
        self.rounds += 1


def for_seconds(seconds, step) -> float:
    """Call ``step`` at least once and until ``seconds`` have passed; the wall time.

    Before each call the process moves to the next CPU it may use, and
    afterwards it may use them all again. The host slows one virtual CPU at
    a time, by up to 2x for seconds to minutes, and the scheduler leaves an
    otherwise idle machine's only busy process where it is, so a whole run
    could sit on the slow one. Taking turns gives every input rounds on each
    CPU, and its best time comes from the faster. Ops never move mid-call.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0

    def moved_step():
        nonlocal turn
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1
        step()

    start = time.perf_counter()
    try:
        moved_step()
        while time.perf_counter() - start < seconds:
            moved_step()
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)


def errors_of(run) -> list[str]:
    """Check the first round's answers; every later round must have repeated them."""
    return run.workload.check(run.first) + run.mismatches


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" and not workload.in_process \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def probe_seconds(code: str, reported: bool, samples: int = 5) -> float:
    """Median over fresh interpreters: wall time of ``-c code``, or what it prints."""
    values = []
    for _ in range(samples):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             check=True, timeout=60).stdout
        values.append(float(out) if reported else time.perf_counter() - t0)
    return statistics.median(values)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer values per traced round; parse time adds the traced set-up's."""
    times = tracer.self_times()
    per_round = lambda layer: times.get(("ops", layer), 0.0) / rounds
    count = lambda key: tracer.counts.get(("ops", key), 0) / rounds
    out = {
        "quiver_core.form_calls": count("quiver_core.form_calls"),
        "quiver_core.parse_s": times.get(("setup", "quiver_core.parse"), 0.0)
        + per_round("quiver_core.parse"),
        "root_system.enumerate_s": per_round("root_system.enumerate"),
        "root_system.enumerate_calls": count("root_system.enumerate_calls"),
        "root_system.classify_calls": count("root_system.classify_calls"),
        "root_system.roots_found": count("root_system.roots_found"),
        "lambda_roots.orthogonal_roots_s": per_round("lambda_roots.orthogonal_roots"),
        "lambda_roots.orthogonal_roots_calls": count("lambda_roots.orthogonal_roots_calls"),
        "lambda_roots.norm_s": per_round("lambda_roots.norm"),
        "lambda_roots.sigma_test_s": per_round("lambda_roots.sigma_test"),
        "lambda_roots.sigma_test_calls": count("lambda_roots.sigma_test_calls"),
        "lambda_roots.sigma_members": count("lambda_roots.sigma_members"),
        "lambda_roots.sigma_enum_s": per_round("lambda_roots.sigma_enum"),
        "lambda_roots.membership_s": per_round("lambda_roots.membership"),
        "decomposer.maximize_s": per_round("decomposer.maximize"),
        "decomposer.label_s": per_round("decomposer.label"),
        "decomposer.label_unresolved": count("decomposer.label_unresolved"),
        "decomposer.report_s": per_round("decomposer.report"),
        "decomposer.terms": count("decomposer.terms"),
        "reflection_walk.normalize_s": per_round("reflection_walk.normalize"),
        "reflection_walk.fundamental_s": per_round("reflection_walk.fundamental"),
        "reflection_walk.reflect_calls": count("reflection_walk.reflect_calls"),
        "reflection_walk.exhaustive": count("reflection_walk.exhaustive"),
        "oracle.verify_s": per_round("oracle.verify"),
        "cli.main_s": per_round("cli.main"),
    }
    ratio = lambda a, b: out[a] / out[b] if out[b] else 0.0
    out["root_system.root_yield"] = ratio("root_system.roots_found", "root_system.classify_calls")
    out["lambda_roots.sigma_yield"] = ratio("lambda_roots.sigma_members", "lambda_roots.sigma_test_calls")
    return out


def round_time(run) -> float:
    """A round's wall time with every op at its best."""
    return sum(run.best.values())


def selftest(cls, seed) -> list[str]:
    """The checker must pass a genuine round and reject one altered answer."""
    workload = cls(random.Random(f"{cls.name}:{seed}"))
    run = Run(workload)
    run.round()
    answers = run.first
    problems = [f"genuine answers rejected: {e}" for e in workload.check(answers)]
    bad = copy.deepcopy(answers)
    if cls.name == "affine-delta":
        what, name = "a wrong multiplicity", next(iter(bad))
        bad[name]["terms"][0]["m"] += 1
    elif cls.name == "weighted-sweep":
        what, name = "a wrong ADE label", next(n for n in bad if n.startswith("pair"))
        bad[name]["terms"][0]["factor"] = "Kleinian(D4)"
    elif cls.name == "orbit-search":
        what, name = "a sequence that cannot be replayed", next(iter(bad))
        bad[name]["seq"] = bad[name]["seq"][1:]
    else:
        what, name = "one changed byte of CLI output", "decompose kronecker"
        bad[name] = bad[name].replace(b"dimension: 4", b"dimension: 5")
    if bad == answers:
        problems.append(f"could not alter the answer of {name}")
    elif not workload.check(bad):
        problems.append(f"{what} in {name} was accepted")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "selftest"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    cls = WORKLOADS[args.workload]
    if args.mode == "selftest":
        problems = selftest(cls, args.seed)
        print(json.dumps({"problems": problems}))
        return 0
    seeded = lambda: random.Random(f"{cls.name}:{args.seed}")
    workload = cls(seeded(), in_process=args.mode == "trace")
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s, "quiverdec": quiverdec.__file__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    run = Run(workload)
    if args.mode == "run":
        wall = for_seconds(args.seconds, run.round)
        out["peak_rss_mib"] = peak_rss_mib(workload)
        errors = errors_of(run)
    else:
        # traced and untraced rounds alternate, so both meet the same machine
        tracer = Tracer()
        tracer.install()
        try:
            traced = Run(cls(seeded(), in_process=True), tracer)
        finally:
            tracer.uninstall()

        def both():
            run.round()
            tracer.install()
            try:
                traced.round()
            finally:
                tracer.uninstall()

        wall = for_seconds(args.seconds, both)
        errors = errors_of(run) + errors_of(traced)
        for key, n in traced.failures.items():
            run.failures[key] = run.failures.get(key, 0) + n
        run.attempted += traced.attempted
        layers = layer_metrics(tracer, traced.rounds)
        layers["cli.interpreter_s"] = probe_seconds("pass", reported=False)
        layers["cli.import_s"] = probe_seconds(
            "import time; t = time.perf_counter(); import quiverdec.cli; "
            "print(time.perf_counter() - t)", reported=True)
        extra = round_time(traced) - round_time(run)
        layers["trace.overhead_s"] = extra / len(run.best)
        layers["trace.overhead_ratio"] = extra / round_time(run)
        out["layers"] = layers
        if args.trace_out:
            tracer.write(args.trace_out)
    out.update(attempted=run.attempted, rounds=run.rounds, wall=wall,
               best=run.best, failures=run.failures, errors=errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
