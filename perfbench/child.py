"""One benchmark run of one workload in a fresh interpreter.

Usage: child.py --root DIR --workload NAME --seed N --run K --out DIR
                [--trace FILE]

Times set-up (`import anisofield` plus `ExperimentConfig.from_dict`), then
one `run_experiment` call: wall time, user+sys CPU and peak RSS. With
`--trace FILE` the layer modules are wrapped after set-up and the spans
are written to FILE. Prints one JSON record as the last line of stdout.
Nothing from the toolkit or numpy is imported before the set-up timer.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

from workloads import WORKERS, WORKLOADS


def _blas() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    info: dict = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return {"config": config().decode(), "threads": threads(),
                    "library": os.path.basename(path)}
    return info


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default="")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import anisofield
    t_import = time.perf_counter()
    from anisofield import experiments
    cfg = experiments.ExperimentConfig.from_dict(wl.kind, dict(
        wl.params, seed=args.seed, workers=WORKERS, out_dir=args.out))
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(anisofield.__file__).startswith(src + os.sep):
        raise SystemExit(f"anisofield imported from {anisofield.__file__}, not {src}")

    tracer = None
    if args.trace:
        from anisofield import calibration
        from tracer import Tracer
        tracer = Tracer(args.run)
        tracer.install()
    from tracer import count_wrapped

    cpu0 = _cpu()
    w0 = time.perf_counter()
    manifest = experiments.run_experiment(cfg)   # looked up after wrapping
    run_s = time.perf_counter() - w0
    cpu_s = _cpu() - cpu0

    record = {
        "run": args.run,
        "traced": tracer is not None,
        "wrapped": count_wrapped(),
        "setup_s": setup_s,
        "import_s": t_import - t0,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": manifest.outputs,
        "env": environment(),
    }
    if tracer is not None:
        layers = tracer.metrics()
        info = calibration._cos_transform_cached.cache_info()
        looked_up = info.hits + info.misses
        layers["calibration.cos_cache.hits"] = info.hits
        layers["calibration.cos_cache.misses"] = info.misses
        layers["calibration.cos_cache.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        record["layers"] = layers
        tracer.write(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
