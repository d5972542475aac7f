"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --workloads train-paper,tag-paper,ebc-desk --seeds 0-9
    python3 bench/prove.py --seeds 0-9 --baseline bench/baseline.json
    python3 bench/prove.py --seeds 10-19 --compare bench/baseline.json

Each run is a fresh ``bench/run.py`` process; seeds are the outer loop, so
slow drift of the machine spreads over all workloads. For every end-to-end
metric the spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and it
must stay below a third of the metric's bound. ``--baseline`` writes the
medians, quartiles and raw values with the environment of the runs;
``--compare`` checks that no median is worse than that file's by more than
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                          cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/prove.py")
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--baseline", help="write medians and quartiles to this JSON file")
    p.add_argument("--compare", help="a file written by --baseline to compare medians with")
    args = p.parse_args(argv)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)["workloads"]
    names = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    values = {n: {m: [] for m, *_ in spec.END_TO_END} for n in names}
    failures = 0
    env = {}
    for seed in seeds:
        for name in names:
            result, lines = run_once(name, seed, args.seconds, 0)
            env = {ln.split(" = ")[0][4:]: ln.split(" = ", 1)[1]
                   for ln in lines if ln.startswith("env ")}
            failures += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                values[name][metric].append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f", failed={result['failed']}/{result['attempted']}", flush=True)
    ok = failures == 0
    summary = {}
    print(f"\n{'workload':12} {'metric':22} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound/3':>7}")
    for name in names:
        summary[name] = {}
        for metric, unit, better, bound in spec.END_TO_END:
            med, q1, q3, sp = spread(values[name][metric])
            steady = sp < bound / 3
            ok &= steady
            summary[name][metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                     "spread": sp, "bound": bound,
                                     "values": values[name][metric]}
            note = "" if steady else "  UNSTEADY"
            if earlier is not None:
                old = earlier[name][metric]["median"]
                worse = (med - old) / old if better == "lower" else (old - med) / old
                ok &= worse <= bound
                note += f"  vs earlier median {old:.4g}: {worse:+.3f} worse" + (
                    "" if worse <= bound else " BEYOND BOUND")
            print(f"{name:12} {metric:22} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{sp:7.3f} {bound / 3:7.3f}{note}")
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({"environment": env, "run_seconds": args.seconds, "seeds": seeds,
                       "setups_per_round": spec.SETUPS_PER_ROUND, "workloads": summary},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady and correct" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
