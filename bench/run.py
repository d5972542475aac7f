"""chemner benchmark: one workload per process, closed loop, single caller.

Run from the root of a checkout that holds ``src/chemner``::

    python3 bench/run.py --workload tag-paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload train-paper,tag-paper,ebc-desk --seed 1

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one round untraced, then the same round with every
layer hook installed, and reports the per-layer metrics. Each metric is
printed by name with its unit, then the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Several comma-separated workloads run one after the other,
each in a fresh process. The workloads and metrics are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402  (imports no numpy: the BLAS setting must come first)

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(spec.BLAS_THREADS)

import harness  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXIT_BENCH_ERROR = 2


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", help="one or more of " + ", ".join(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this seed's training losses in bench/reference.json")
    return p.parse_args(argv)


class Unavailable(Exception):
    """The program or the benchmark cannot run here."""


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "chemner", "__init__.py")):
        raise Unavailable(f"no chemner sources under {SRC}")
    sys.path.insert(0, SRC)
    import chemner
    if not os.path.abspath(chemner.__file__).startswith(SRC + os.sep):
        raise Unavailable(f"chemner imported from {chemner.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "openblas": blas, "blas_threads": spec.BLAS_THREADS}


def run_rounds(workload, run, rounds: int) -> None:
    """The rounds over the held-out parts, each after its set-up samples."""
    for k in range(rounds):
        for _ in range(spec.SETUPS_PER_ROUND[run.workload]):
            state = workload.setup(run)
        run.round_cli.append([0, 0.0])
        workload.round(run, state, k % len(run.parts))


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    import workloads  # needs chemner on the path

    work = os.path.join(ROOT, ".bench_work", f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        reference = {}
        if os.path.exists(workloads.REFERENCE_PATH):
            with open(workloads.REFERENCE_PATH, encoding="utf-8") as f:
                reference = json.load(f)
        ledger = harness.Ledger()
        run = workloads.Run(workload=name, seed=seed, work=work, clock=harness.Clock(),
                            ledger=ledger, reference=reference, record=record)
        workload = workloads.WORKLOADS[name]()
        workload.prepare(run)
        run.clock = harness.Clock()          # preparation is not measured
        env = environment()
        lines = [f"env {k} = {v}" for k, v in env.items()]
        lines.append(f"run workload = {name}, seed = {seed}, seconds = {seconds:g}, "
                     f"trace = {int(trace)}, "
                     f"setup repeats per round = {spec.SETUPS_PER_ROUND[name]}")
        if not trace:
            # the losses repeat every round, so one round records them
            rounds = 1 if record else spec.passes_for(name, seconds) * len(run.parts)
            run_rounds(workload, run, rounds)
            metrics = end_to_end(run, lines, rounds)
        else:
            metrics = traced(workload, run, lines)
        if record and run.observed:
            entry = reference.setdefault(name, {})
            entry[str(seed)] = run.observed
            with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
                json.dump(reference, f, indent=1, sort_keys=True)
                f.write("\n")
        lines.append(f"ops attempted = {ledger.attempted}, failed = {ledger.failed}, "
                     f"failed_ratio = {ledger.failed_ratio:g}")
        lines += [f"FAILED {f}" for f in ledger.failures[:20]]
        print("\n".join(lines))
        return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                "failed": ledger.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def traced(workload, run, lines: list) -> dict:
    """One round untraced, then the same round with every hook installed."""
    import workloads
    run_rounds(workload, run, 1)
    untraced = run.clock.total
    rec = tracing.Recorder()
    run.clock = harness.Clock(rec)
    installed = tracing.install(rec)
    try:
        run_rounds(workload, run, 1)
    finally:
        installed.remove()
    values, flags = tracing.layer_metrics(rec, installed, run.workload, run.clock.total,
                                          untraced)
    lines += [f"ABSENT {hook}: {reason}" for hook, reason in installed.absent.items()]
    lines += [f"FLAG {f}" for f in flags]
    problems = tracing.span_problems(rec, run.clock.total)
    op = run.ledger.begin("trace check")
    for problem in problems:
        run.ledger.fail(op, problem)
    lines.append(f"trace check: spans closed and nested, self times >= 0, "
                 f"unattributed within [0, {tracing.UNATTRIBUTED_MARGIN:.0%}] of the "
                 f"traced wall: {'ok' if not problems else problems}")
    missing = [m for m, _ in spec.PER_LAYER if m not in values]
    if missing:
        raise workloads.BenchError(f"BENCHMARK.json names per-layer metrics the trace "
                              f"does not make: {missing}")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in spec.PER_LAYER}
    metrics_lines(lines, metrics)
    return metrics


def metrics_lines(lines: list, metrics: dict) -> None:
    for metric, m in metrics.items():
        lines.append(f"metric {metric} = {m['value']:.6g} {m['unit']}")


def end_to_end(run, lines: list, rounds: int) -> dict:
    lat = run.latencies_ms
    if harness.samples_beyond(len(lat), 90) < 10:
        op = run.ledger.begin("latency samples")
        run.ledger.fail(op, f"only {len(lat)} latency samples: fewer than ten beyond p90")
    rates = [tokens / seconds for tokens, seconds in run.round_cli if seconds]
    tokens, seconds = (sum(col) for col in zip(*run.round_cli))
    values = {
        "setup_s": statistics.median(run.setup_s) if run.setup_s else 0.0,
        "cli_tokens_per_s": tokens / seconds if seconds else 0.0,
        "tag_sentence_p50_ms": statistics.median(lat) if lat else 0.0,
        "tag_sentence_p90_ms": harness.percentile(lat, 90) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in spec.END_TO_END}
    lines.append(f"rounds = {rounds}, per-round cli rates = "
                 f"[{', '.join(f'{r:.1f}' for r in rates)}] tokens/s "
                 f"({tokens} tokens in {seconds:.3f} s), "
                 f"latency samples = {len(lat)} "
                 f"({harness.samples_beyond(len(lat), 90)} beyond p90), "
                 f"setup samples = {len(run.setup_s)}")
    metrics_lines(lines, metrics)
    named = {"train": "train_tokens_per_s", "bilm_train": "bilm_train_tokens_per_s",
             "contextualize": "contextualize_tokens_per_s", "tag": "tag_tokens_per_s"}
    for phase, label in named.items():
        if phase in run.phases:
            tokens, seconds = run.phases[phase]
            lines.append(f"metric {label} = {tokens / seconds:.6g} tokens/s "
                         f"({tokens} tokens in {seconds:.3f} s)")
    lines.append(f"metric failed_ratio = {run.ledger.failed_ratio:g} "
                 f"({run.ledger.failed} of {run.ledger.attempted} operations)")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    names = [n for n in (args.workload or "").split(",") if n]
    known = set(spec.WORKLOADS)
    if not names or any(n not in known for n in names):
        print(f"bench: --workload must name one or more of {sorted(known)}", file=sys.stderr)
        return EXIT_BENCH_ERROR
    if len(names) > 1:
        results = {}
        for name in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout, end="")
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            results[name] = json.loads(last[0]) if proc.returncode == 0 else None
        print(json.dumps({"workloads": results}))
        return 0 if all(r and r.get("correct") for r in results.values()) else 1
    try:
        _import_program()
    except Unavailable as e:
        print(f"bench: {e}", file=sys.stderr)
        return EXIT_BENCH_ERROR
    import workloads
    try:
        result = run_workload(names[0], args.seed, args.seconds, bool(args.trace),
                              args.record_reference)
    except workloads.BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return EXIT_BENCH_ERROR
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
