"""Workload definitions: the job list of each workload, at full and tiny size.

A job is one call into symbolkit's public API: a CLI kind run through
``cli.run_config``, or one of the library calls the CLI does not expose
(``simulate_multi``, ``gamma_variation``).  The workload seed only picks the
master seed handed to each job; the configs themselves are fixed, so the same
seed always gives the same inputs.

This module imports nothing from numpy or symbolkit, so the set-up probe can
read the resolve list without paying for those imports before its clock starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

LN2 = 0.6931471805599453
X_GRID = [-1.0, 0.0, 1.0]
XI_GRID = [-3.0, -1.0, 0.5, 1.5, 3.0]
AGREEMENT_MODELS = ("bm_bump", "cp_tanh", "stable_sin", "bm_bump_drift")

BUMP = {"name": "bump", "params": {"a": 0.5, "b": 1.0}}
TEMPERED_MODEL = {"coefficient": BUMP, "driver": {"name": "tempered"},
                  "label": "tempered_bump"}
NORMAL_LAW_MODEL = {
    "coefficient": BUMP,
    "driver": {"drift": [0.0], "covariance": [[0.0]],
               "levy_measure": {"kind": "atoms", "rate": 1.0,
                                "law": {"name": "normal", "mean": 0.0, "std": 1.0}}},
    "label": "normal_law_bump",
}
# simulate_multi: Brownian column plus compound-Poisson column (catalog drivers)
MULTI_DRIVERS = [(BUMP, {"name": "bm"}),
                 ({"name": "tanh", "params": {"offset": 2.0, "gain": 1.0}},
                  {"name": "cp_pm1"})]
GAMMAS = [1.5, 2.0, 3.0]

WHY = {
    "mc-ensemble": "README-grid symbol-compare on four catalog models and tempered, plus "
                   "feller-demo and growth: wide short ensembles (sde, levy sampling, MC "
                   "post-processing); the only one --threads speeds up",
    "analytic": "indices, index-transfer, bound-diagnostic, g-identity, generator-check and "
                "symbol-analytic: no simulation; index grid searches and per-frequency "
                "adaptive quad on density and normal-law exponents",
    "path-scalar": "long single paths: simulate with jump record, CSV and binary output, "
                   "simulate_multi, gamma_variation DP and variation on dense paths",
}

KNOWN_GAPS = [
    "indices on the tempered density driver exits with QuadratureFailure (exit 3): the "
    "density exponent's error estimate reaches 6e-8 against a 1e-8 tolerance at "
    "eta_max = 1e4 and 40 at |xi| = 1e4, so no workload runs an index search on a "
    "density driver",
    "bound-diagnostic on density and normal-law drivers takes 17-20 s per job, so it is "
    "left out for run length",
    "generator-check on the tempered model at x = 0.5 raises QuadratureFailure (density "
    "generator error estimate 2.2e-9 against 1e-9); the workload checks it at x = 1",
    "a workload covering these cases is a later change, after the vectorised density "
    "exponent lands",
]


@dataclass
class Job:
    """One call into symbolkit; ``kind`` is a CLI kind or a ``lib:`` call."""

    name: str
    kind: str
    config: dict
    seed: int = 0


def master_seeds(seed: int, n: int) -> list:
    """n job seeds derived from the workload seed, stable across Python versions."""
    out = []
    for i in range(n):
        digest = hashlib.sha256(f"symbolkit-bench:{seed}:{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "little"))
    return out


def _mc_ensemble(tiny: bool) -> list:
    # two ensemble chunks per rung rather than the README's 100k paths: a pass
    # then takes a few seconds, so a run times three pairs and reports medians
    # (single threads=2 passes of the 100k grid spread 19% across runs)
    paths = 2000 if tiny else 32_768
    xs = [0.0] if tiny else X_GRID
    jobs = [Job(f"compare-{name}", "symbol-compare",
                {"model": {"name": name}, "x_grid": xs, "xi_grid": XI_GRID,
                 "estimator": {"paths": paths}})
            for name in AGREEMENT_MODELS]
    jobs.append(Job("compare-tempered", "symbol-compare",
                    {"model": TEMPERED_MODEL, "x_grid": [0.0], "xi_grid": XI_GRID,
                     "estimator": {"paths": 2000 if tiny else 20_000}}))
    jobs.append(Job("feller-demo", "feller-demo",
                    {"t0": LN2, "trials": 5000 if tiny else 100_000, "steps": 16}))
    jobs.append(Job("growth-stable_sin", "growth",
                    {"model": {"name": "stable_sin"}, "x": 0.0,
                     "lambdas": [0.5, 1.0, 2.0],
                     "t_small": [0.01, 0.02, 0.04], "t_large": [1.0, 2.0, 4.0],
                     "paths": 200 if tiny else 2000,
                     "steps_per_run": 32 if tiny else 256}))
    return jobs


def _analytic(tiny: bool) -> list:
    # passes of a few seconds, so a run times several pairs and reports medians:
    # beta_0 searches a 3-point x box, generator-check runs at one x
    eta = 1e4 if tiny else 1e8
    box = [-2.0, 2.0, 3]
    jobs = [
        Job("indices-stable_like", "indices",
            {"symbol": {"name": "stable_like"}, "x_grid": [-2.0, 0.0, 2.0],
             "eta_max": eta, "x_box": box, "compute_beta0": not tiny}),
        Job("indices-cp_tanh", "indices",
            {"symbol": {"model": {"name": "cp_tanh"}}, "x_grid": [0.0],
             "eta_max": eta, "x_box": box, "compute_beta0": not tiny}),
        Job("index-transfer", "index-transfer",
            {"driver": {"name": "stable", "params": {"alpha": 1.2}},
             "coefficient": {"name": "tanh", "params": {"offset": 1.0, "gain": 0.5}},
             "x_grid": [0.0] if tiny else [-2.0, -0.5, 0.0, 0.5, 2.0],
             "eta_max": eta}),
        Job("bound-cp_tanh", "bound-diagnostic",
            {"model": {"name": "cp_tanh"}, "box": [-1.0, 1.0]}),
        Job("g-identity-d1", "g-identity", {"d": 1}),
        Job("g-identity-d2", "g-identity", {"d": 2}),
    ]
    xis = [1.0] if tiny else XI_GRID
    for label, model in (("tempered", TEMPERED_MODEL), ("normal", NORMAL_LAW_MODEL)):
        jobs.append(Job(f"generator-{label}", "generator-check",
                        {"model": model, "x_grid": [1.0]}))
        jobs.append(Job(f"analytic-{label}", "symbol-analytic",
                        {"model": model, "x_grid": [0.0] if tiny else X_GRID,
                         "xi_grid": xis}))
    return jobs


def _path_scalar(tiny: bool) -> list:
    horizon, step = (1.0, 1e-2) if tiny else (10.0, 1e-3)
    sims = [Job(f"simulate-{name}", "simulate",
                {"model": {"name": name}, "x0": 0.0, "horizon": horizon,
                 "step": step, "binary": True})
            for name in ("cp_tanh", "stable_sin", "bm_bump_drift")]
    multi = Job("simulate-multi", "lib:simulate_multi",
                {"drivers": MULTI_DRIVERS, "x0": 0.0, "horizon": horizon,
                 "step": 2.0 * step})
    gammas = [Job(f"gamma-{src.name}", "lib:gamma_variation",
                  {"source": src.name, "gammas": GAMMAS})
              for src in sims + [multi]]
    levels = [6, 8] if tiny else list(range(8, 15))
    variation = Job("variation-bm_unit", "variation",
                    {"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0, 3.0],
                     "levels": levels, "trials": 16})
    return sims + [multi] + gammas + [variation]


_JOB_LISTS = {"mc-ensemble": _mc_ensemble, "analytic": _analytic,
             "path-scalar": _path_scalar}
WORKLOADS = tuple(_JOB_LISTS)


def jobs_for(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's job list with per-job master seeds derived from ``seed``."""
    jobs = _JOB_LISTS[workload](tiny)
    for job, s in zip(jobs, master_seeds(seed, len(jobs))):
        job.seed = s
    return jobs


def resolve_list(jobs) -> list:
    """(what, spec) pairs for every model, driver, symbol and coefficient the jobs use."""
    out = []
    for job in jobs:
        cfg = job.config
        if "model" in cfg:
            out.append(("model", cfg["model"]))
        if "symbol" in cfg:
            out.append(("symbol", cfg["symbol"]))
        if "driver" in cfg:
            out.append(("driver", cfg["driver"]))
        if "coefficient" in cfg:
            out.append(("coefficient", cfg["coefficient"]))
        for coef, drv in cfg.get("drivers", []):
            out += [("coefficient", coef), ("driver", drv)]
        if job.kind == "feller-demo":
            out.append(("model", {"name": "feller_demo"}))
    return out
