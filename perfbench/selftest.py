"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

On the cheapest workload, with the shortest runs (one untraced run, one
untraced plus one traced run, and one run with a forced verdict failure),
it checks that:

1. the metric names and units each mode emits equal those in
   BENCHMARK.json, and so do the workload names;
2. a forced verdict failure is counted: `failed` rises to `attempted`;
3. the self times of the written spans sum to no more than the traced
   run's `run_s`;
4. an untraced run installs no wrapper, and a traced run does.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run as bench
from workloads import WORKLOADS

WORKLOAD = "calib-sim-fine"


def self_time_sum(spans: list[list]) -> float:
    """Sum over spans of duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return sum(end - start - child[i] for i, (_, start, end, _) in enumerate(spans))


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wl = WORKLOADS[WORKLOAD]
    source = bench.source_identity(bench.ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        plain, e2e = bench.benchmark(wl, 1, 0, False, source)
        traced, layers = bench.benchmark(wl, 1, 0, True, source)
        forced_wl = dataclasses.replace(wl, verdict=lambda out_dir: "forced failure")
        forced, _ = bench.benchmark(forced_wl, 1, 0, False, source)

    checks = []

    def check(ok: bool, what: str) -> None:
        checks.append((ok, what))

    for key, emitted in (("end_to_end", e2e), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == {k: m["unit"] for k, m in emitted.items()},
              f"{key} names and units match BENCHMARK.json")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "workload names match BENCHMARK.json")

    check(plain["failed"] == 0 and traced["failed"] == 0,
          "plain and traced runs pass their verdicts")
    check(forced["attempted"] >= 1 and forced["failed"] == forced["attempted"],
          "a forced verdict failure is counted as failed")

    traced_runs = [r for r in traced["runs"] if r["traced"]]
    check(bool(traced_runs), "the traced invocation made a traced run")
    for r in traced_runs:
        with open(os.path.join(bench.ROOT, r["spans_file"])) as fh:
            total = self_time_sum(json.load(fh)["spans"])
        check(0.0 < total <= r["run_s"],
              f"span self times sum {total:.4f} s <= traced run_s {r['run_s']:.4f} s")

    untraced_runs = [r for r in plain["runs"] + traced["runs"] if not r["traced"]]
    check(all(r["wrapped"] == 0 for r in untraced_runs), "untraced runs install no wrapper")
    check(all(r["wrapped"] > 0 for r in traced_runs), "traced runs install wrappers")

    for ok, what in checks:
        print(("ok   " if ok else "FAIL ") + what)
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
