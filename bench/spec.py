"""What the benchmark measures, read from ``BENCHMARK.json``, plus the run
settings that are the benchmark's own.

``BENCHMARK.json`` is the only list of workloads, metrics, bounds and the
run length. This module imports no numpy, so ``run.py`` can fix the BLAS
thread count before numpy loads.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)

RUN_SECONDS = _SPEC["run_seconds"]
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"])
                   for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

BLAS_THREADS = 1       # fixed, at most nproc; single-thread BLAS is the steadier choice

# Seconds one pass over all held-out parts (one round per part) took when
# the benchmark was defined (2-vCPU Xeon VM, one BLAS thread). A run makes
# the whole number of passes closest to --seconds of work there, so parent
# and change always do identical work, every part weighs the same, and the
# round count never flips with the machine's speed.
NOMINAL_PASS_S = {"train-paper": 31.5, "tag-paper": 12.6, "ebc-desk": 28.0}

# Set-up samples taken before each round, so that they spread over the
# whole run like every other sample.
SETUPS_PER_ROUND = {"train-paper": 3, "tag-paper": 5, "ebc-desk": 4}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))
