"""Experiment drivers: config validation, dispatch, and artifact emission.

Each experiment kind has a frozen params record (unknown keys rejected),
a runner producing CSV column blocks, a JSON report and the jitter of each
covariance factor it took, and a manifest recording the config echo,
derived seed scheme, that jitter and content digests of the data files,
hashed as they are written. Data files are byte-identical across reruns;
timestamps live only in the manifest. A nonzero jitter changes the law
drawn, so the report then carries it too.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import time
from typing import Any, Callable, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__ as TOOL_VERSION
from . import _blas
from . import field as fieldmod
from . import hitting as hitmod
from . import metric as metmod
from ._record import asdict, frozen
from .errors import check_fits

OUT_ROOT_ENV = "ANISOFIELD_OUT"
# traced peak bytes (CPython 3.11) when every row was held to the run's end:
# a calib-sim row 165, a calib-noiseless grid point with its row 272. Rows are
# streamed now, so until a work budget replaces them these bound a run's size
# against physical memory, not the memory that it holds
_CALIB_ROW_BYTES = 165
_NOISELESS_POINT_BYTES = 275
_CSV_ROWS = 10_000  # rows that _write_csv formats at once


def _tupleize(v):
    return tuple(map(_tupleize, v)) if isinstance(v, (list, tuple)) else v


def _listify(v):
    return list(map(_listify, v)) if isinstance(v, tuple) else v


# accepted value types per annotation; bool is refused everywhere even though
# it subclasses int, and nothing is coerced, so a valid config echoes as given
_ACCEPTED = {int: ((int,), "an integer"), float: ((int, float), "a number"),
             str: ((str,), "a string"), tuple: ((list, tuple), "a list")}


def _check_type(key: str, value, annotation, where: str = "") -> None:
    """Refuse value unless it has the annotated type (a float's number must
    also be a finite float64); a tuple[X, ...] is a list whose every
    element is checked against X by the same rules."""
    origin = get_origin(annotation) or annotation
    accepted, expected = _ACCEPTED[origin]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config key {key!r} expects {expected}{where}, got "
                         f"{type(value).__name__} {value!r}")
    # an int beyond float64 compares exactly, so it is refused here too
    if origin is float and not abs(value) <= sys.float_info.max:
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
        # every int key is a count that some runner reads as a float
        if hints[key] is int and not abs(value) <= sys.float_info.max:
            raise ValueError(f"config key {key!r} must be held by float64, got {value!r}")
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
        return cls(kind, params, seed, out_dir, workers)

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
    jitter: dict  # factor name -> jitter added to its diagonal (0 if none)


def _number_text(x) -> str:
    """A number whose type may vary down its column (a config value as
    given, a count beside floats): an int in full, a float to 17 digits."""
    return ("%d" if isinstance(x, int) else "%.17g") % x


def _write_csv(path: str, header: dict[str, str], blocks) -> str:
    """Write header's column names, then each block's rows, and return the
    sha256 of the bytes written. header maps each column to its format (%d,
    %.17g or %s); a block, a tuple of equal-length sequences or arrays, is
    written and hashed in slices of at most _CSV_ROWS rows, one %-format each."""
    row = ",".join(header.values()) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text: str) -> None:
            data = text.encode()
            fh.write(data)
            digest.update(data)
        put(",".join(header) + "\n")
        for block in blocks:
            for lo in range(0, len(block[0]), _CSV_ROWS):
                columns = [c[lo:lo + _CSV_ROWS] for c in block]
                columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
                put(row * len(columns[0]) % tuple(itertools.chain.from_iterable(zip(*columns))))
    return digest.hexdigest()


def _write_json(path: str, doc: dict) -> str:
    """Write doc as indented, key-sorted JSON; returns the bytes' sha256."""
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _model(hurst, mixing) -> fieldmod.FieldModel:
    return fieldmod.FieldModel(H=metmod.HurstVector(H=tuple(hurst)),
                               mixing=tuple(mixing))


def _field_mesh(box_lo, box_hi, n_per_axis: int) -> np.ndarray:
    """The mesh of field-sim and modulus-scan, refused from its count before it
    is built if its kernel matrix would not fit (I.mesh refuses a count < 1)."""
    I = metmod.IndexSet(box_lo, box_hi)
    k = float(max(n_per_axis, 0))
    metmod.check_kernel_fits(math.prod([k] * I.dim), I.dim, "mesh")
    return I.mesh(n_per_axis)


def _scan_output(report: hitmod.ScalingReport, factors: list[str], **extra):
    """(header, blocks, report_doc, jitter) of a scan, jitter naming the
    factors of report.jitter; extra keys join the report."""
    header = dict.fromkeys(["r", "p_hat", "ci_low", "ci_high"], "%.17g") | {"n_mc": "%d"}
    block = tuple([getattr(e, name) for e in report.estimates] for name in header)
    doc = {"radii": list(report.radii), "fitted_slope": report.fitted_slope,
           "slope_se": report.slope_se, "status": report.status,
           "p_hat": [e.p_hat for e in report.estimates], **extra}
    return header, [block], doc, dict(zip(factors, report.jitter))


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
# runners: each returns (header, blocks, report_doc, jitter), header mapping
# each column to its format and jitter each factor's name to its jitter, known
# at return; every refusal comes before the first block of columns


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
    I = metmod.IndexSet((0.0,) * H.N, (1.0,) * H.N)
    if p.test_grid_points < 1:
        raise ValueError(f"a test grid needs n_points >= 1, got {p.test_grid_points}")
    test_pts = I.mesh(max(2, math.ceil(p.test_grid_points ** (1.0 / H.N))))

    def entropy_row(x):
        closed, quadval = metmod.entropy_integral_closed_form(x), _entropy_quadrature(x)
        return "entropy", x, closed, quadval, abs(closed - quadval) <= 1e-8

    def cover_row(r):
        gc = metmod.grid_cover(I, r, H)
        valid, bound = gc.is_valid_on(test_pts), gc.c8 * r ** (-H.Q)
        return "cover", r, gc.count, bound, valid and gc.count <= bound
    rows = [*map(entropy_row, p.entropy_x), *map(cover_row, p.cover_radii)]
    check, param, value, bound, ok = zip(*rows)
    header = dict(check="%s", param="%s", value="%s", bound="%.17g", ok="%s")
    block = (check, [*map(_number_text, param)], [*map(_number_text, value)], bound, ok)
    return header, [block], {"Q": H.Q, "all_ok": all(map(bool, ok))}, {}


def _run_field_sim(cfg: ExperimentConfig):
    p: FieldSimParams = cfg.params
    model = _model(p.hurst, p.mixing)
    points = _field_mesh(p.box_lo, p.box_hi, p.n_grid)
    lam = fieldmod.verify_condition2(model)
    max_ratio, c_analytic, ok1 = fieldmod.verify_condition1(model, points)
    n = len(points)
    names = [f"s{j}" for j in range(points.shape[1])] + [f"x{a}" for a in range(model.d)]
    header = dict.fromkeys(["replicate", "point"], "%d") | dict.fromkeys(names, "%.17g")
    draws = fieldmod.path_blocks(model, points, p.n_samples, cfg.seed)

    def blocks():
        # whole replicates, point-major, one draw block at a time
        for lo, x in draws:
            yield (np.repeat(np.arange(lo, lo + len(x)), n),
                   np.tile(np.arange(n), len(x)), *np.tile(points, (len(x), 1)).T,
                   *x.reshape(-1, model.d).T)
    report = {"condition1": {"max_ratio": max_ratio, "c_analytic": c_analytic, "ok": ok1},
              "condition2": {"lambda_min": lam}, "n_samples": p.n_samples,
              "grid_hash": hashlib.sha256(points.tobytes()).hexdigest()}
    return header, blocks(), report, {"kernel": draws.jitter[0]}


def _run_hitting_scan(cfg: ExperimentConfig):
    p: HittingScanParams = cfg.params
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    I = metmod.IndexSet(p.box_lo, p.box_hi)
    drift = hitmod.LipschitzDrift(kind=p.drift_kind, L=p.drift_L)
    _distinct("radii", p.radii, lo=0.0)
    report = hitmod.hitting_scan(model, I, p.t, p.radii, drift, p.n_mc,
                                 cfg.seed, p.ball_points_per_axis)
    return _scan_output(report, [f"kernel r={r}" for r in p.radii])


def _run_polarity_scan(cfg: ExperimentConfig):
    p: PolarityScanParams = cfg.params
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    I = metmod.IndexSet(p.box_lo, p.box_hi)
    drift = hitmod.LipschitzDrift(kind=p.drift_kind, L=p.drift_L)
    report = hitmod.polarity_scan(model, I, drift, p.center, p.deltas,
                                  p.n_mc, cfg.seed, p.grid_step)
    return _scan_output(report, ["kernel"], target_exponent=model.d - model.H.Q)


def _run_modulus_scan(cfg: ExperimentConfig):
    p: ModulusScanParams = cfg.params
    _distinct("eps", p.eps, lo=0.0, hi=1.0)
    model = _model(p.hurst, p.mixing)
    fieldmod.verify_condition2(model)
    points = _field_mesh(p.box_lo, p.box_hi, p.n_points)
    # each draw block is reduced to its rows of M before the next is drawn
    draws = fieldmod.path_blocks(model, points, p.n_samples, cfg.seed)
    reps = [fieldmod.modulus_statistic(x, points, model.H, list(p.eps)) for _, x in draws]
    rep, M = reps[0], np.concatenate([r.M for r in reps])
    cols = range(len(rep.eps))
    q95 = [None if rep.missing[c] else float(np.quantile(M[:, c], 0.95))
           for c in cols]
    mean = [None if rep.missing[c] else float(M[:, c].mean()) for c in cols]
    block = (rep.eps, ["missing" if rep.missing[c] else "ok" for c in cols],
             *(["" if v is None else "%.17g" % v for v in vs] for vs in (q95, mean)))
    report = {"eps_p95": dict(zip(map(str, rep.eps), q95)),
              "n_samples": p.n_samples, "grid_points": len(points)}
    header = {"eps": "%.17g", "status": "%s", "p95": "%s", "mean": "%s"}
    return header, [block], report, {"kernel": draws.jitter[0]}


def _lattice_size(V: float, step: float) -> float:
    """At least the number of positive frequencies of FrequencyGrid(V,
    step), from V and step alone; 0 outside its domain, which it refuses."""
    ok = 1.0 < V < math.inf and 0.0 < step < math.inf
    return (V - 1.0 / V) / step + 1.5 if ok else 0.0


def _run_calib_noiseless(cfg: ExperimentConfig):
    from . import calibration as calib
    p: CalibNoiselessParams = cfg.params
    m = _lattice_size(p.V, p.step)
    check_fits(f"the grid and rows of {m:.0f} frequencies",
               _NOISELESS_POINT_BYTES * (m + 1.0))
    grid = calib.FrequencyGrid(p.V, p.step)
    est = calib.psi_estimator(grid, 0.0)
    block = (grid.points, est.values.real, est.values.imag, [*map(abs, est.arg_values)])
    oracle = 2.0 * np.arctan(grid.points)
    max_err = float(np.max(np.abs(est.values - 1j * oracle)))
    report = {"well_defined": est.well_defined,
              "min_arg_modulus": est.min_arg_modulus,
              "max_phase_jump": est.max_phase_jump,
              "max_error_vs_closed_form": max_err}
    return dict.fromkeys(["v", "re_psi", "im_psi", "abs_arg"], "%.17g"), [block], report, {}


def _run_calib_sim(cfg: ExperimentConfig):
    from . import calibration as calib
    p: CalibSimParams = cfg.params
    _distinct("noise_scales", p.noise_scales)
    if p.n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    noise = calib.NoiseLevel(a=p.noise_a, p=p.noise_p)
    noise.certify_tail()
    n, scales = p.n_replicates, p.noise_scales
    # refused before any grid array or normal exists: the rows, and the two
    # spectral covariance blocks (and factors) of m points, 8 ((m+1)^2 + m^2) bytes
    check_fits(f"{n * len(scales)} result rows", float(_CALIB_ROW_BYTES) * n * len(scales))
    m = _lattice_size(p.V, p.step)
    check_fits(f"the spectral covariance blocks of {m:.0f} frequencies",
               8.0 * ((m + 1.0) * (m + 1.0) + m * m))
    grid = calib.FrequencyGrid(p.V, p.step)
    n_ok = {str(s): 0 for s in scales}
    labels = [_number_text(s) for s in scales]
    draws = calib.spectral_blocks(noise, grid, n, cfg.seed)

    def blocks():
        # one block per draw block, replicate-major; the counts are filled
        # as the blocks are written, before the report is
        for lo, X in draws:
            vds = [calib.psi_verdicts(grid, scale, X) for scale in scales]
            for key, vd in zip(n_ok, vds):
                n_ok[key] += int(np.count_nonzero(vd.well_defined))
            yield (np.repeat(np.arange(lo, lo + len(X)), len(scales)),
                   labels * len(X),
                   np.stack([vd.well_defined for vd in vds], axis=1).ravel(),
                   np.stack([vd.min_arg_modulus for vd in vds], axis=1).ravel(),
                   [f or "" for fs in zip(*(vd.failures for vd in vds)) for f in fs])
            del X, vds  # not held while the next block is drawn
    header = dict(replicate="%d", noise_scale="%s", well_defined="%s",
                  min_arg_modulus="%.17g", failure="%s")
    report = {"n_replicates": n, "well_defined_counts": n_ok}
    return header, blocks(), report, dict(zip(["spec-cos", "spec-sin"], draws.jitter))


RUNNERS: dict[str, Callable] = dict(zip(PARAM_CLASSES, (
    _run_metric_check, _run_field_sim, _run_hitting_scan, _run_polarity_scan,
    _run_modulus_scan, _run_calib_noiseless, _run_calib_sim)))

def default_out_dir(kind: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, os.path.join(os.getcwd(), "runs"))
    return os.path.join(root, kind)


def run_experiment(config: ExperimentConfig) -> RunManifest:
    out_dir = config.out_dir or default_out_dir(config.kind)
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    paths = {name: os.path.join(out_dir, name)
             for name in ("results.csv", "report.json", "manifest.json")}
    # one BLAS thread: the factors and products then have the same bits
    # whatever the library's thread count, and no idle BLAS thread spins;
    # the blocks are drawn as they are written, so the writing is pinned too
    with _blas.one_blas_thread() as blas:
        header, blocks, report, jitter = RUNNERS[config.kind](config)
        if any(jitter.values()):  # beside the numbers drawn from K + jitter I
            report["jitter"] = {name: j for name, j in jitter.items() if j}
        blocks = iter(blocks)
        first = next(blocks)
        # only now, after every refusal and factorization, so that a config
        # the runner refuses leaves no directory behind
        created = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        try:
            outputs = {"results.csv": _write_csv(paths["results.csv"], header,
                                                 itertools.chain([first], blocks)),
                       "report.json": _write_json(paths["report.json"], report)}
            manifest = RunManifest(
                kind=config.kind, config=config.echo(), version=TOOL_VERSION,
                started=started, outputs=outputs, blas=blas, jitter=jitter,
                finished=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
                seed_scheme=("replicate i of a stream draws from Philox with key "
                             "[blake2b-64(master, stream), i] and counter 0; a field "
                             "drift's trigonometric coefficients from stream 'drift'"))
            _write_json(paths["manifest.json"], asdict(manifest))
        except BaseException:
            # a failed run leaves none of the three files (an earlier run's
            # results.csv is overwritten already), nor out_dir if it made it
            for path in filter(os.path.exists, paths.values()):
                os.remove(path)
            if created:
                os.rmdir(out_dir)
            raise
    return manifest
