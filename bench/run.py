"""Benchmark of quiverdec: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload affine-delta --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                # all four workloads, one after the other
    python3 bench/run.py --selftest     # each checker must reject an altered answer

Each workload runs in processes of its own (see worker.py), one at a time,
with the library imported from the checkout's ``src``. With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run instead. The lines before it record the machine, the seed, the op
counts and every failing input. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("affine-delta", "weighted-sweep", "orbit-search", "cli")
# nearest-rank percentiles of the inputs' best times whose mean is op_tail_s:
# the slowest input where a round has nine; where it has hundreds, the ranks
# from p96 to p98, each with at least ten inputs beyond it, so that no single
# input's luck in its fastest round moves the tail (see README.md)
TAIL_BAND = {"affine-delta": (100, 100), "weighted-sweep": (96, 98),
             "orbit-search": (100, 100), "cli": (100, 100)}
SETUP_SAMPLES = 9  # processes set up per run; setup_s is their median
DEADLINE_S = 170  # a run ends within this, or fails


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, mode, deadline, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.decode().splitlines()[-1])
    if "quiverdec" in out and not Path(out["quiverdec"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"quiverdec was imported from {out['quiverdec']}, not from this checkout")
    return out


def tail(values, band) -> float:
    """Mean of the values at the nearest ranks of the percentiles in ``band``."""
    ordered = sorted(values)
    rank = lambda percentile: max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return statistics.fmean(ordered[rank(band[0]):rank(band[1]) + 1])


def measure(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    """One run of one workload: its result object and the lines that record it."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        out = worker(workload, seed, seconds, "trace", deadline,
                     ["--trace-out", str(HERE / "out" / f"spans-{workload}-seed{seed}.jsonl")])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(out["layers"].items())}
    else:
        setups = [worker(workload, seed, seconds, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        out = worker(workload, seed, seconds, "run", deadline)
        setups.append(out["setup_s"])
        # each input's time is its best in the run: every round repeats every
        # input, and the best repetition is the one other tenants of the host
        # slowed least
        best = list(out["best"].values())
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "ops/s"},
            "op_median_s": {"value": statistics.median(best), "unit": "s"},
            "op_tail_s": {"value": tail(best, TAIL_BAND[workload]), "unit": "s"},
            "peak_rss_mib": {"value": out["peak_rss_mib"], "unit": "MiB"},
        }
    failed = sum(out["failures"].values())
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  python {platform.python_version()}"
        f"  platform {platform.platform()}  nproc {len(os.sched_getaffinity(0))}",
        f"attempted {out['attempted']}  failed {failed}  rounds {out['rounds']}  wall {out['wall']:.3f} s",
    ]
    lines += [f"  failed x{n}: {key}" for key, n in sorted(out["failures"].items())]
    if not trace:
        low, high = TAIL_BAND[workload]
        ranks = f"p{low}" if low == high else f"the mean of p{low} to p{high}"
        top = tail(out["best"].values(), (high, high))
        beyond = sum(d > top for d in out["best"].values())
        lines.append(f"op_tail_s is {ranks} of the best times of {len(out['best'])} inputs,"
                     f" {beyond} beyond p{high}")
    else:
        lines.append(f"per-layer values are per round over {out['rounds']} traced rounds")
    lines += [f"  {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  check failed: {e}" for e in out["errors"]]
    result = {"correct": not out["errors"], "attempted": out["attempted"], "failed": failed,
              "metrics": metrics}
    return result, lines


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_yield", "_ratio")) else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="check that each workload's checker rejects an altered answer")
    args = parser.parse_args()
    if not (ROOT / "src" / "quiverdec" / "__init__.py").is_file():
        print(f"error: no quiverdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for workload in chosen:
            if args.selftest:
                problems = worker(workload, args.seed, 0, "selftest",
                                  time.monotonic() + DEADLINE_S)["problems"]
                print(f"selftest {workload}: " + ("ok" if not problems else "; ".join(problems)))
                ok = ok and not problems
                continue
            result, lines = measure(workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
