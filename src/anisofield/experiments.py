"""Experiment drivers: config validation, dispatch, and artifact emission.

Each experiment kind has a frozen params record (unknown keys rejected),
a runner producing CSV rows plus a JSON report, and a manifest recording the
config echo, derived seed scheme and content digests of the data files.
Data files are byte-identical across reruns; timestamps live only in the
manifest.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from typing import Any, Callable, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__ as TOOL_VERSION
from . import _blas
from . import field as fieldmod
from . import hitting as hitmod
from . import metric as metmod
from ._record import asdict, frozen

OUT_ROOT_ENV = "ANISOFIELD_OUT"
# bytes at a run's peak (tracemalloc, CPython 3.11): per calib-sim result
# row, its list, index and modulus (about 156 kept) and one block's verdicts,
# 165 at one noise scale and 141 at three (10^5 replicates); per
# calib-noiseless grid point, its arrays and row, 272 (10^4 to 5 * 10^5 points)
_CALIB_ROW_BYTES = 165
_NOISELESS_POINT_BYTES = 275


def _tupleize(v):
    if isinstance(v, (list, tuple)):
        return tuple(_tupleize(x) for x in v)
    return v


def _listify(v):
    if isinstance(v, tuple):
        return [_listify(x) for x in v]
    return v


# accepted value types per annotation; bool is refused everywhere even though
# it subclasses int, and nothing is coerced, so a valid config echoes as given
_ACCEPTED = {int: ((int,), "an integer"), float: ((int, float), "a number"),
             str: ((str,), "a string"), tuple: ((list, tuple), "a list")}


def _check_type(key: str, value, annotation, where: str = "") -> None:
    """Refuse value unless it has the annotated type (a float must also be
    finite); a tuple[X, ...] is a list whose every element is checked
    against X by the same rules."""
    origin = get_origin(annotation) or annotation
    accepted, expected = _ACCEPTED[origin]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config key {key!r} expects {expected}{where}, got "
                         f"{type(value).__name__} {value!r}")
    if origin is float and not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    if origin is tuple:
        for element in value:
            _check_type(key, element, get_args(annotation)[0],
                        " in each element")


def params_from_dict(cls, data: dict):
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown config keys for {cls.__name__}: {unknown}")
    for key, value in data.items():
        _check_type(key, value, hints[key])
    return cls(**{k: _tupleize(v) for k, v in data.items()})


@frozen
class MetricCheckParams:
    hurst: tuple[float, ...] = (0.75, 0.75)
    entropy_x: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0)
    cover_radii: tuple[float, ...] = (0.5, 0.25, 0.125)
    test_grid_points: int = 10_000


@frozen
class FieldSimParams:
    hurst: tuple[float, ...] = (0.5,)
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 0.0), (1.0, 1.0))
    box_lo: tuple[float, ...] = (0.0,)
    box_hi: tuple[float, ...] = (1.0,)
    n_grid: int = 10
    n_samples: int = 200


@frozen
class HittingScanParams:
    hurst: tuple[float, ...] = (0.75,)
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 0.0), (1.0, 1.0))
    box_lo: tuple[float, ...] = (0.0,)
    box_hi: tuple[float, ...] = (1.0,)
    t: tuple[float, ...] = (0.5,)
    radii: tuple[float, ...] = (0.2, 0.1, 0.05)
    n_mc: int = 400
    ball_points_per_axis: int = 16
    drift_kind: str = "zero"
    drift_L: float = 0.0


@frozen
class PolarityScanParams:
    hurst: tuple[float, ...] = (0.75,)
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 0.0), (1.0, 1.0))
    box_lo: tuple[float, ...] = (0.0,)
    box_hi: tuple[float, ...] = (1.0,)
    center: tuple[float, ...] = (0.0, 0.0)
    deltas: tuple[float, ...] = (0.2, 0.1, 0.05)
    n_mc: int = 400
    grid_step: float = 1.0 / 64.0
    drift_kind: str = "zero"
    drift_L: float = 0.5


@frozen
class ModulusScanParams:
    hurst: tuple[float, ...] = (0.5,)
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 0.0), (1.0, 1.0))
    box_lo: tuple[float, ...] = (0.0,)
    box_hi: tuple[float, ...] = (0.2,)
    n_points: int = 401
    eps: tuple[float, ...] = (0.2, 0.1)
    n_samples: int = 200


@frozen
class CalibNoiselessParams:
    V: float = 10.0
    step: float = 0.01


@frozen
class CalibSimParams:
    noise_a: float = 1.5
    noise_p: float = 1.5
    V: float = 5.0
    step: float = 0.1
    noise_scales: tuple[float, ...] = (1e-3,)
    n_replicates: int = 20


PARAM_CLASSES: dict[str, type] = {
    "metric-check": MetricCheckParams,
    "field-sim": FieldSimParams,
    "hitting-scan": HittingScanParams,
    "polarity-scan": PolarityScanParams,
    "modulus-scan": ModulusScanParams,
    "calib-noiseless": CalibNoiselessParams,
    "calib-sim": CalibSimParams,
}


@frozen
class ExperimentConfig:
    """One run's kind, params, master seed and output directory.

    ``workers`` is a no-op: normal draws are serial, because a thread split
    of them was slower on every measured workload, and every run holds BLAS
    at one thread. It is still range-checked and echoed so existing configs
    keep working.
    """

    kind: str
    params: Any
    seed: int = 0
    out_dir: str = ""
    workers: int = 1

    @classmethod
    def from_dict(cls, kind: str, data: dict) -> "ExperimentConfig":
        if kind not in PARAM_CLASSES:
            raise ValueError(f"unknown experiment kind {kind!r}")
        data = dict(data)
        seed = data.pop("seed", 0)
        out_dir = str(data.pop("out_dir", ""))
        workers = data.pop("workers", 1)
        _check_type("seed", seed, int)
        _check_type("workers", workers, int)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        params = params_from_dict(PARAM_CLASSES[kind], data)
        return cls(kind=kind, params=params, seed=seed, out_dir=out_dir,
                   workers=workers)

    def echo(self) -> dict:
        doc = {k: _listify(v) for k, v in asdict(self.params).items()}
        return {**doc, "seed": self.seed, "workers": self.workers,
                "out_dir": self.out_dir}


@frozen
class RunManifest:
    kind: str
    config: dict
    version: str
    started: str
    finished: str
    seed_scheme: str
    outputs: dict
    blas: dict


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _model(hurst, mixing) -> fieldmod.FieldModel:
    return fieldmod.FieldModel(H=metmod.HurstVector(H=tuple(hurst)),
                               mixing=tuple(mixing))


def _scan_output(report: hitmod.ScalingReport, **extra):
    """(header, rows, report_doc) of a hitting or polarity scan; extra keys
    are added to the report."""
    rows = [[e.r, e.p_hat, e.ci_low, e.ci_high, e.n_mc] for e in report.estimates]
    doc = {"radii": list(report.radii), "fitted_slope": report.fitted_slope,
           "slope_se": report.slope_se, "status": report.status,
           "p_hat": [e.p_hat for e in report.estimates], **extra}
    return ["r", "p_hat", "ci_low", "ci_high", "n_mc"], rows, doc


def _nonempty(key: str, values: tuple) -> None:
    if not values:
        raise ValueError(f"{key} must be nonempty")


def _distinct(key: str, values: tuple, lo=-math.inf, hi=math.inf) -> None:
    """Refuse an empty list, a repeated value (its rows would be written,
    and its replicates counted, twice) or a value outside (lo, hi)."""
    _nonempty(key, values)
    if len(set(values)) != len(values):
        raise ValueError(f"{key} must be distinct, got {list(values)}")
    if not all(lo < x < hi for x in values):
        raise ValueError(f"{key} must lie in ({lo:g}, {hi:g}), got {list(values)}")


# ---------------------------------------------------------------------------
# runners: each returns (header, rows, report_doc)


def _entropy_quadrature(x: float) -> float:
    """int_0^x sqrt(log(1/y)) dy by quadrature, independent of the closed form.

    y = exp(-s^2) turns it into int_{s0}^inf 2 s^2 exp(-s^2) ds with
    s0 = sqrt(log(1/x)); the integrand is entire, so 64-point Gauss-Legendre
    on [s0, s0 + 8] is exact to rounding (the cut tail is below e^-64).
    """
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(64)
    s = math.sqrt(-math.log(x)) + 4.0 * (t + 1.0)
    return 4.0 * float(np.dot(w, 2.0 * s * s * np.exp(-s * s)))


def _run_metric_check(cfg: ExperimentConfig):
    p: MetricCheckParams = cfg.params
    _nonempty("entropy_x", p.entropy_x)
    _nonempty("cover_radii", p.cover_radii)
    H = metmod.HurstVector(H=tuple(p.hurst))
    I = metmod.IndexSet.unit_box(H.N)
    if p.test_grid_points < 1:
        raise ValueError(f"a test grid needs n_points >= 1, got {p.test_grid_points}")
    test_pts = I.mesh(max(2, math.ceil(p.test_grid_points ** (1.0 / H.N))))
    rows = []
    for x in p.entropy_x:
        closed = metmod.entropy_integral_closed_form(x)
        quadval = _entropy_quadrature(x)
        rows.append(["entropy", x, closed, quadval, abs(closed - quadval) <= 1e-8])
    for r in p.cover_radii:
        gc = metmod.grid_cover(I, r, H)
        valid = gc.is_valid_on(test_pts)
        bound = gc.c8 * r ** (-H.Q)
        rows.append(["cover", r, gc.count, bound, valid and gc.count <= bound])
    report = {"Q": H.Q, "all_ok": all(bool(r[-1]) for r in rows)}
    return ["check", "param", "value", "bound", "ok"], rows, report


def _run_field_sim(cfg: ExperimentConfig):
    p: FieldSimParams = cfg.params
    model = _model(p.hurst, p.mixing)
    points = metmod.IndexSet.box(p.box_lo, p.box_hi).mesh(p.n_grid)
    lam = fieldmod.verify_condition2(model)
    max_ratio, c_analytic, ok1 = fieldmod.verify_condition1(model, points)
    paths = fieldmod.sample_paths(model, points, p.n_samples, cfg.seed)
    rows = []
    for rep in range(p.n_samples):
        for q, s in enumerate(points):
            rows.append([rep, q] + list(s) + list(paths[rep, q]))
    header = (["replicate", "point"] + [f"s{j}" for j in range(points.shape[1])]
              + [f"x{a}" for a in range(model.d)])
    report = {
        "condition1": {"max_ratio": max_ratio, "c_analytic": c_analytic, "ok": ok1},
        "condition2": {"lambda_min": lam},
        "grid_hash": hashlib.sha256(points.tobytes()).hexdigest(),
        "n_samples": p.n_samples,
    }
    return header, rows, report


def _run_hitting_scan(cfg: ExperimentConfig):
    p: HittingScanParams = cfg.params
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    I = metmod.IndexSet.box(p.box_lo, p.box_hi)
    drift = hitmod.LipschitzDrift(kind=p.drift_kind, L=p.drift_L)
    _distinct("radii", p.radii, lo=0.0)
    if p.ball_points_per_axis < 1:
        raise ValueError("ball_points_per_axis must be >= 1")
    report = hitmod.hitting_scan(model, I, p.t, p.radii, drift, p.n_mc,
                                 cfg.seed, p.ball_points_per_axis)
    return _scan_output(report)


def _run_polarity_scan(cfg: ExperimentConfig):
    p: PolarityScanParams = cfg.params
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    I = metmod.IndexSet.box(p.box_lo, p.box_hi)
    drift = hitmod.LipschitzDrift(kind=p.drift_kind, L=p.drift_L)
    report = hitmod.polarity_scan(model, I, drift, p.center, p.deltas,
                                  p.n_mc, cfg.seed, p.grid_step)
    return _scan_output(report, target_exponent=model.d - model.H.Q)


def _run_modulus_scan(cfg: ExperimentConfig):
    p: ModulusScanParams = cfg.params
    _distinct("eps", p.eps, lo=0.0, hi=1.0)
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    points = metmod.IndexSet.box(p.box_lo, p.box_hi).mesh(p.n_points)
    paths = fieldmod.sample_paths(model, points, p.n_samples, cfg.seed)
    rep = fieldmod.modulus_statistic(paths, points, model.H, list(p.eps))
    rows = []
    doc_eps = {}
    for col, e in enumerate(rep.eps):
        if rep.missing[col]:
            rows.append([e, "missing", "", ""])
            doc_eps[str(e)] = None
        else:
            col_vals = rep.M[:, col]
            q95 = float(np.quantile(col_vals, 0.95))
            rows.append([e, "ok", q95, float(col_vals.mean())])
            doc_eps[str(e)] = q95
    report = {"eps_p95": doc_eps, "n_samples": p.n_samples,
              "grid_points": len(points)}
    return ["eps", "status", "p95", "mean"], rows, report


def _check_fits(what: str, need: float) -> None:
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError(f"{what} need about {need:.3g} bytes, more than "
                          f"the {have} bytes of physical memory")


def _lattice_size(V: float, step: float) -> float:
    """At least the number of positive frequencies of FrequencyGrid(V,
    step), from V and step alone; 0 outside its domain, which it refuses."""
    ok = 1.0 < V < math.inf and 0.0 < step < math.inf
    return (V - 1.0 / V) / step + 1.5 if ok else 0.0


def _run_calib_noiseless(cfg: ExperimentConfig):
    from . import calibration as calib
    p: CalibNoiselessParams = cfg.params
    m = _lattice_size(p.V, p.step)
    _check_fits(f"the grid and rows of {m:.0f} frequencies",
                _NOISELESS_POINT_BYTES * (m + 1.0))
    grid = calib.FrequencyGrid(p.V, p.step)
    est = calib.psi_estimator(grid, 0.0)
    rows = [[v, psi.real, psi.imag, abs(a)] for v, psi, a in
            zip(grid.points, est.values, est.arg_values)]
    oracle = 2.0 * np.arctan(grid.points)
    max_err = float(np.max(np.abs(est.values - 1j * oracle)))
    report = {"well_defined": est.well_defined,
              "min_arg_modulus": est.min_arg_modulus,
              "max_phase_jump": est.max_phase_jump,
              "max_error_vs_closed_form": max_err}
    return ["v", "re_psi", "im_psi", "abs_arg"], rows, report


def _check_calib_sim_fits(V: float, step: float, n_rows: int) -> None:
    """Refuse, before any grid array or normal exists, n_rows result rows
    at _CALIB_ROW_BYTES each or m lattice points whose two spectral
    covariance blocks need 8 ((m+1)^2 + m^2) bytes, beyond physical memory."""
    _check_fits(f"{n_rows} result rows", float(_CALIB_ROW_BYTES) * n_rows)
    m = _lattice_size(V, step)
    _check_fits(f"the spectral covariance blocks of {m:.0f} frequencies",
                8.0 * ((m + 1.0) * (m + 1.0) + m * m))


def _run_calib_sim(cfg: ExperimentConfig):
    from . import calibration as calib
    p: CalibSimParams = cfg.params
    _distinct("noise_scales", p.noise_scales)
    if p.n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    noise = calib.NoiseLevel(a=p.noise_a, p=p.noise_p)
    noise.certify_tail()
    n, scales = p.n_replicates, p.noise_scales
    _check_calib_sim_fits(p.V, p.step, n * len(scales))
    grid = calib.FrequencyGrid(p.V, p.step)
    # each draw block's rows are made once it is judged, replicate-major
    rows = []
    n_ok = dict.fromkeys(scales, 0)
    for lo, X in calib.spectral_blocks(noise, grid, n, cfg.seed):
        vds = [calib.psi_verdicts(grid, scale, X) for scale in scales]
        per_scale = [zip(vd.well_defined.tolist(), vd.min_arg_modulus.tolist(),
                         vd.failures) for vd in vds]
        for i, verdicts in enumerate(zip(*per_scale), start=lo):
            for scale, (well_defined, min_mod, failure) in zip(scales, verdicts):
                n_ok[scale] += well_defined
                rows.append([i, scale, well_defined, min_mod, failure or ""])
    report = {"n_replicates": n,
              "well_defined_counts": {str(s): n_ok[s] for s in scales}}
    return (["replicate", "noise_scale", "well_defined", "min_arg_modulus",
             "failure"], rows, report)


RUNNERS: dict[str, Callable] = {
    "metric-check": _run_metric_check,
    "field-sim": _run_field_sim,
    "hitting-scan": _run_hitting_scan,
    "polarity-scan": _run_polarity_scan,
    "modulus-scan": _run_modulus_scan,
    "calib-noiseless": _run_calib_noiseless,
    "calib-sim": _run_calib_sim,
}


def default_out_dir(kind: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, os.path.join(os.getcwd(), "runs"))
    return os.path.join(root, kind)


def run_experiment(config: ExperimentConfig) -> RunManifest:
    out_dir = config.out_dir or default_out_dir(config.kind)
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    # one BLAS thread: the factors and products then have the same bits
    # whatever the library's thread count, and no idle BLAS thread spins
    with _blas.one_blas_thread() as blas:
        header, rows, report = RUNNERS[config.kind](config)
    # only now, so that a config the runner refuses leaves no directory behind
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    report_path = os.path.join(out_dir, "report.json")
    _write_csv(results_path, header, rows)
    _write_json(report_path, report)
    finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    manifest = RunManifest(
        kind=config.kind,
        config=config.echo(),
        version=TOOL_VERSION,
        started=started,
        finished=finished,
        seed_scheme=("replicate i of a stream draws from Philox with key "
                     "[blake2b-64(master, stream), i] and counter 0; a field "
                     "drift's trigonometric coefficients from stream 'drift'"),
        outputs={"results.csv": _sha256(results_path),
                 "report.json": _sha256(report_path)},
        blas=blas,
    )
    _write_json(os.path.join(out_dir, "manifest.json"), asdict(manifest))
    return manifest
