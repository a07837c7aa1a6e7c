"""The two benchmark workloads: experiment config, path count and verdict.

Each workload is one `run_experiment` call whose master seed is the
benchmark's `--seed`; everything else is fixed here. The verdict reads the
run's `report.json` and `results.csv` and returns None when the run's
scientific claim holds, or a one-line reason when it does not. This module
imports nothing from the toolkit, so the parent process stays light.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

WORKERS = 2


def _report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def polarity_verdict(out_dir: str) -> Optional[str]:
    """Fitted slope >= 0.36 and p_hat non-increasing as delta shrinks."""
    rep = _report(out_dir)
    slope = rep["fitted_slope"]
    if rep["status"] != "ok" or not (slope >= 0.36):
        return f"status {rep['status']}, slope {slope} < 0.36"
    radii, p = rep["radii"], rep["p_hat"]
    if radii != sorted(radii, reverse=True):
        return "radii not in decreasing order"
    if any(a < b for a, b in zip(p, p[1:])):
        return f"p_hat increases as delta shrinks: {p}"
    return None


def calib_verdict(out_dir: str) -> Optional[str]:
    """Every replicate well defined at the smallest noise scale, and
    well-definedness only lost (never regained) as the scale grows."""
    ok: dict[int, dict[float, bool]] = {}
    for row in _rows(out_dir):
        ok.setdefault(int(row["replicate"]), {})[float(row["noise_scale"])] = (
            row["well_defined"] == "True")
    for rep, by_scale in sorted(ok.items()):
        flags = [by_scale[s] for s in sorted(by_scale)]
        if not flags[0]:
            return f"replicate {rep} not well defined at the smallest scale"
        if any(a < b for a, b in zip(flags, flags[1:])):
            return f"replicate {rep} regains well-definedness as noise grows"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    verdict: Callable[[str], Optional[str]]
    why: str

    @property
    def paths(self) -> int:
        """Gaussian sample paths drawn per run: field, drift and spectral draws."""
        p = self.params
        if self.kind == "polarity-scan":
            return p["n_mc"] * (2 if p["drift_kind"] == "field" else 1)
        return p["n_replicates"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="polarity-field-drift",
        kind="polarity-scan",
        params={"hurst": [0.75], "grid_step": 1.0 / 128.0,
                "drift_kind": "field", "drift_L": 0.5,
                "deltas": [0.2, 0.1, 0.05, 0.025], "n_mc": 600},
        verdict=polarity_verdict,
        why="per-replicate drift re-builds and re-factors the same 258x258 "
            "covariance, plus the drift's all-pairs Lipschitz rescale"),
    Workload(
        name="calib-sim-fine",
        kind="calib-sim",
        params={"V": 10.0, "step": 0.01,
                "noise_scales": [1e-3, 1e-2, 1e-1], "n_replicates": 1000},
        verdict=calib_verdict,
        why="calibration layer: cosine-transform quadrature, two ~1000x1000 "
            "factors and one psi_estimator call per replicate and scale"),
)}
