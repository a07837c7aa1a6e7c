"""anisofield benchmark: closed-loop `run_experiment` workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client keeps one experiment in flight: each run is a fresh child
interpreter (`perfbench/child.py`) that imports the toolkit from `src/`,
builds the workload's config with `--seed` as master seed and calls
`run_experiment` once with `workers = 2`. A new run starts while it is
expected (from the mean run so far) to end within `--seconds`. Every
run's scientific verdict and output digests are checked; a run fails on
a crash, a failed verdict, or a `results.csv`/`report.json` digest that
differs from the first run of the invocation.

`--trace 0` reports the end-to-end metrics (medians over runs, tracing
off). `--trace 1` alternates untraced and traced runs and reports the
per-layer metrics: medians over the traced runs, plus the tracing
overhead (traced minus untraced median `run_s`). Spans go to
`.perfbench_out/spans/`, and every invocation writes its per-run records
and environment to `.perfbench_out/<workload>-seed<N>-trace<T>.json`.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "paths_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit; a missing layer (not called by the workload) reads 0.
PER_LAYER = {
    "setup.import_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.artifact_bytes": "bytes",
    "field.build_covariance.s": "s",
    "field.build_covariance.calls": "count",
    "field.cholesky_with_jitter.s": "s",
    "field.cholesky_with_jitter.calls": "count",
    "field.cholesky_with_jitter.distinct": "count",
    "field.cholesky_with_jitter.jittered": "count",
    "field.cholesky_with_jitter.gflop": "GFLOP",
    "field.standard_normal_batch.s": "s",
    "field.standard_normal_batch.normals": "count",
    "field.sample_paths.self_s": "s",
    "field.sample_paths.calls": "count",
    "hitting.LipschitzDrift.evaluate.self_s": "s",
    "hitting.LipschitzDrift.evaluate.calls": "count",
    "hitting.polarity_scan.self_s": "s",
    "metric.rho_pairwise.s": "s",
    "metric.rho_pairwise.calls": "count",
    "seeds.derive_seed.s": "s",
    "seeds.derive_seed.calls": "count",
    "calibration.cos_transform_many.s": "s",
    "calibration.cos_cache.hits": "count",
    "calibration.cos_cache.misses": "count",
    "calibration.cos_cache.hit_ratio": "ratio",
    "calibration.simulate_spectral_noise.self_s": "s",
    "calibration.psi_estimator.s": "s",
    "calibration.psi_estimator.calls": "count",
    "calibration.psi_estimator.zero_hit": "count",
    "calibration.psi_estimator.phase_jump": "count",
    "calibration.distinguished_log.s": "s",
    "trace.observe.s": "s",
}

# Counts the tracer computes from array sizes and file sizes: they repeat
# exactly from run to run and ignore caches.
COMPUTED = {
    "experiments.artifact_bytes",
    "field.cholesky_with_jitter.distinct",
    "field.cholesky_with_jitter.gflop",
    "field.standard_normal_batch.normals",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_identity(root: str) -> dict:
    """git commit when the root is a git checkout, and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "anisofield")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def run_child(wl: Workload, seed: int, k: int, out_dir: str,
              spans: str, timeout: float) -> tuple[dict | None, str | None]:
    """One fresh-process run; returns (record, None) or (None, reason)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", wl.name, "--seed", str(seed), "--run", str(k),
           "--out", out_dir]
    if spans:
        cmd += ["--trace", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def judge(wl: Workload, rec: dict, out_dir: str, reference: dict | None) -> str | None:
    """Failure reason for a finished run, or None when it is correct."""
    try:
        digests = {f: sha256(os.path.join(out_dir, f)) for f in ("results.csv", "report.json")}
        if digests != {f: rec["outputs"][f] for f in digests}:
            return "manifest digests do not match the written files"
        rec["digests"] = digests
        if reference is not None and digests != reference:
            return "output digests differ from the first run"
        reason = wl.verdict(out_dir)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None if reason is None else f"verdict: {reason}"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of fresh-process runs for `seconds`; returns the summary."""
    start = time.perf_counter()
    work = os.path.join(ROOT, ".perfbench_out", f"work-{os.getpid()}")
    span_dir = os.path.join(ROOT, ".perfbench_out", "spans")
    os.makedirs(span_dir, exist_ok=True)
    records, failures, reference = [], [], None
    child_s = []
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.fmean(child_s) if child_s else 0.0
        if k >= (2 if trace else 1) and elapsed + expected > seconds:
            break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 5.0:
            break
        traced = trace and k % 2 == 1
        out_dir = os.path.join(work, str(k))
        spans = (os.path.join(span_dir, f"{wl.name}-seed{seed}-run{k}.json")
                 if traced else "")
        t0 = time.perf_counter()
        rec, reason = run_child(wl, seed, k, out_dir, spans, remaining)
        child_s.append(time.perf_counter() - t0)
        if rec is not None:
            reason = judge(wl, rec, out_dir, reference)
            if reference is None and "digests" in rec:
                reference = rec["digests"]
            rec["failure"] = reason
            rec["spans_file"] = os.path.relpath(spans, ROOT) if spans else None
            records.append(rec)
        if reason is not None:
            failures.append({"run": k, "reason": reason})
        shutil.rmtree(out_dir, ignore_errors=True)
        k += 1
        if reason is not None and rec is None and "timed out" in reason:
            break
    shutil.rmtree(work, ignore_errors=True)
    return {"workload": wl.name, "kind": wl.kind, "params": wl.params,
            "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": k, "failed": len(failures), "failures": failures,
            "reference_digests": reference, "runs": records}


def _stat(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(wl: Workload, runs: list[dict]) -> dict:
    values = {
        "setup_s": [r["setup_s"] for r in runs],
        "run_s": [r["run_s"] for r in runs],
        "paths_per_s": [wl.paths / r["run_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: _stat(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(runs: list[dict]) -> dict:
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "setup.import_s":
            values = [r["import_s"] for r in runs]
        elif name == "trace.run_s":
            values = [r["run_s"] for r in traced]
        elif name == "trace.untraced_run_s":
            values = [r["run_s"] for r in plain]
        elif name == "trace.overhead_s":
            continue
        else:
            values = [r["layers"].get(name, 0.0) for r in traced]
        out[name] = _stat(values, unit)
    overhead = out["trace.run_s"]["value"] - out["trace.untraced_run_s"]["value"]
    out["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced)}
    return {name: out[name] for name in PER_LAYER}


def top_self_times(runs: list[dict], n: int = 6) -> list[tuple[str, float]]:
    """Largest median self times over the traced runs."""
    traced = [r["layers"] for r in runs if r["traced"]]
    names = {k for layers in traced for k in layers if k.endswith(".self_s")}
    med = {k: statistics.median(layers.get(k, 0.0) for layers in traced) for k in names}
    return sorted(med.items(), key=lambda kv: -kv[1])[:n]


def report(summary: dict, metrics: dict) -> None:
    """Human-readable block for one workload (everything but the last line)."""
    runs = summary["runs"]
    print(f"workload {summary['workload']} ({summary['kind']}) seed={summary['seed']} "
          f"trace={int(summary['trace'])} attempted={summary['attempted']} "
          f"failed={summary['failed']} "
          f"fail_frac={summary['failed'] / summary['attempted']:.4g}")
    for f in summary["failures"]:
        print(f"  FAILED run {f['run']}: {f['reason']}")
    if runs:
        print("  env " + json.dumps(runs[0]["env"], sort_keys=True))
        print("  source " + json.dumps(summary["source"], sort_keys=True))
        print("  digests " + json.dumps(summary["reference_digests"], sort_keys=True))
        print("  run_s per run " + " ".join(f"{r['run_s']:.4f}" for r in runs))
        print("  blas threads per run " + " ".join(
            str(r["env"]["blas"]["threads"]) for r in runs))
    for name, m in metrics.items():
        spread = f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  " if "q1" in m else ""
        label = "  [computed]" if name in COMPUTED else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {spread}n={m['n']}{label}")
    if summary["trace"] and runs:
        print("  largest self times: " + ", ".join(
            f"{k[:-len('.self_s')]} {v:.3f} s" for k, v in top_self_times(runs)))


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
              source: dict) -> tuple[dict, dict]:
    """Run one workload, write its record file, print its block."""
    summary = run_workload(wl, seed, seconds, trace)
    summary["source"] = source
    runs = summary["runs"]
    metrics = {}
    if runs and (not trace or any(r["traced"] for r in runs)):
        metrics = per_layer(runs) if trace else end_to_end(wl, runs)
    summary["metrics"] = metrics
    path = os.path.join(ROOT, ".perfbench_out", f"{wl.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    report(summary, metrics)
    return summary, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "anisofield", "__init__.py")):
        print(f"perfbench: no toolkit source at {os.path.join(ROOT, 'src', 'anisofield')}",
              file=sys.stderr)
        return 2
    source = source_identity(ROOT)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        summary, metrics = benchmark(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), source)
        if not metrics:
            print(f"perfbench: {name}: no run produced timings", file=sys.stderr)
            return 1
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else name + "."
        result_metrics.update({prefix + k: {"value": m["value"], "unit": m["unit"]}
                               for k, m in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
