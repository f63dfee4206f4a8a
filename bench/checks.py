"""Output checks: each job's files against a reference the benchmark knows.

``check_job`` reads a job's output directory and returns a list of problems
(empty when the job is correct).  ``compare_dirs`` returns the files whose
bytes differ between two runs of the same job, which is how the thread-count
and rerun invariance is checked.  Every ``results.json`` must parse as strict
JSON: ``NaN`` and ``Infinity`` are rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# files that legitimately differ between runs (wall time lives in the manifest)
VOLATILE = {"manifest.json"}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def load_strict(path: Path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def compare_dirs(ref: Path, other: Path) -> list:
    """Names of files that are missing from either side or differ in bytes."""
    if not (ref.is_dir() and other.is_dir()):
        return ["job directory"]
    names = {p.name for p in ref.iterdir()} | {p.name for p in other.iterdir()}
    bad = []
    for name in sorted(names - VOLATILE):
        a, b = ref / name, other / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            bad.append(name)
    return bad


def _csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_symbol_compare(job, res, audit) -> list:
    est = job.config.get("estimator", {})
    paths = est.get("paths", 10_000)
    n_rungs = len(est.get("t_ladder", (0.04, 0.02, 0.01, 0.005)))
    variants = 2 if est.get("check_radius", True) else 1
    n_x, n_xi = len(job.config["x_grid"]), len(job.config["xi_grid"])
    out = []
    # all_pass is a 3 SE test over every grid point, so a correct run fails it now
    # and then; a record counts as agreeing when it passed or is within 5 SE
    far = [r for r in res["records"]
           if not r["pass"] and r["abs_error"] > 5.0 * r["se"]]
    if far:
        out.append(f"{len(far)} records fail and lie beyond 5 SE")
    # the radius check is also 3 SE, and all xi at one x share their ensembles;
    # one flagged x per job is within chance, two are not
    flagged = sorted({r["x"] for r in res["records"] if not r["r_consistent"]})
    if len(flagged) > 1:
        out.append(f"r_consistent is false at x = {flagged}")
    if len(res["records"]) != n_x * n_xi:
        out.append(f"{len(res['records'])} records, expected {n_x * n_xi}")
    # each rung ensemble is one simulate_ensemble call; see run.EnsembleAudit
    want = [paths] * (n_x * n_rungs * variants)
    if audit != want:
        out.append(f"rung path counts {audit} differ from configured {want[:1]} x {len(want)}")
    return out


def _check_indices(job, res) -> list:
    spec = job.config["symbol"]
    out = []
    for rec in res["per_x"]:
        x = rec["x"]
        if spec.get("name") == "stable_like":
            want = 1.0 + 0.5 / (1.0 + x * x)
        else:                                   # cp_tanh solution symbol: bounded
            want = 0.0
        if abs(rec["beta_inf"] - want) > 0.1:
            out.append(f"beta_inf({x}) = {rec['beta_inf']}, expected {want} +- 0.1")
    return out


def _check_feller(res) -> list:
    # 5 binomial standard deviations around e^{-t0}: the 95% band the kind reports
    # would fail one correct run in twenty
    p = math.exp(-res["t0"])
    band = 5.0 * math.sqrt(p * (1.0 - p) / res["trials"])
    if abs(res["frequency"] - p) > band:
        return [f"frequency {res['frequency']} outside {p} +- {band}"]
    return []


def _check_variation(res) -> list:
    rows = [r for r in res["rows"] if r["gamma"] == 2.0]
    top = max(rows, key=lambda r: r["level"])
    if abs(top["median"] - 1.0) > 0.2:
        return [f"quadratic variation median {top['median']} at level {top['level']}"]
    return []


def _check_path_record(jobdir: Path, res) -> list:
    from symbolkit.sde import path_from_binary

    with open(jobdir / "path.bin", "rb") as fh:
        path = path_from_binary(fh)
    out = []
    if path.times.shape[0] != res["n_steps"] + 1:
        out.append("path.bin length differs from n_steps + 1")
    if path.states[-1].tolist() != res["terminal"]:
        out.append("path.bin terminal state differs from results.json")
    csv = jobdir / "results.csv"
    if csv.exists():
        rows = _csv_rows(csv)
        if [r[0] for r in rows] != path.times.tolist() or \
                [r[1:] for r in rows] != path.states.tolist():
            out.append("path.bin does not round-trip to results.csv")
    return out


def _check_gamma(res) -> list:
    out = []
    for rec in res["records"]:
        if abs(rec["reevaluated"] - rec["value"]) > 1e-9 * max(1.0, abs(rec["value"])):
            out.append(f"reevaluate({rec['gamma']}) = {rec['reevaluated']} != {rec['value']}")
    return out


def check_job(job, jobdir: Path, audit=None) -> list:
    """Problems with one job's outputs; [] when every check passes."""
    try:
        res = load_strict(jobdir / "results.json")
    except (OSError, ValueError) as exc:
        return [f"results.json: {exc}"]
    res = res.get("results", res)
    kind = job.kind
    if kind == "symbol-compare":
        return _check_symbol_compare(job, res, audit)
    if kind == "generator-check":
        return [] if res["all_agree"] else ["all_agree is false"]
    if kind == "indices":
        return _check_indices(job, res)
    if kind == "index-transfer":
        return [] if res["max_deviation"] <= 0.1 else [
            f"max_deviation {res['max_deviation']} > 0.1"]
    if kind == "bound-diagnostic":
        return [] if res["consistent"] else ["consistent is false"]
    if kind == "g-identity":
        return [] if res["max_residual"] <= 1e-6 else [
            f"max_residual {res['max_residual']} > 1e-6"]
    if kind == "feller-demo":
        return _check_feller(res)
    if kind == "variation":
        return _check_variation(res)
    if kind in ("simulate", "lib:simulate_multi"):
        return _check_path_record(jobdir, res)
    if kind == "lib:gamma_variation":
        return _check_gamma(res)
    if kind == "symbol-analytic":
        # Re p >= 0 holds for every symbol of a Levy-driven SDE
        return [f"Re p({r['x']}, {r['xi']}) = {r['re']} < 0"
                for r in res["records"] if r["re"] < -1e-9]
    return []            # growth: strict JSON and invariance only
