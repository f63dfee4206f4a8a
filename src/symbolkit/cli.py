"""symbolkit: batch experiment runner.

One subcommand per experiment kind; every run takes a JSON config, a master
seed, and an output directory, and writes results.json, results.csv and
manifest.json.  Result files are a pure function of (config, seed): floats
are serialized with shortest round-trip repr, JSON keys are sorted, and all
parallelism is chunked deterministically, so reruns and different --threads
settings produce byte-identical results.  The manifest records the resolved
config, its hash, package versions and wall time; ``symbolkit rerun``
replays a manifest.

Exit codes: 0 success, 2 config/schema violation, 3 numerical failure,
4 I/O error or an allocation that cannot be met.  Failures emit a
machine-readable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, sde
from . import coefficients as coeff
from .catalog import (feller_demo_model, resolve_driver, resolve_model,
                      resolve_symbol)
from .errors import ConfigError, NonConvergence, QuadratureFailure, SymbolkitError
from .indices import (build_index_report, g_identity_check,
                      index_transfer_check, symbol_bound_diagnostic)
from .pathstats import growth_experiment, variation_experiment
from .sde import path_to_binary, simulate_path
from .seeding import TAG_EXPERIMENT
from .symbols import (frozen_triplet, gaussian_bump, generator_apply_fourier,
                      generator_apply_integro, symbol_from_exponent, symbol_mc_table,
                      symbol_of_model)

KINDS = ("simulate", "symbol-analytic", "symbol-estimate", "symbol-compare",
         "generator-check", "indices", "index-transfer", "variation",
         "growth", "g-identity", "bound-diagnostic", "feller-demo")


# --------------------------------------------------------------------------
# config helpers


def _require(cfg: dict, key: str, kinds, kind_name: str):
    if key not in cfg:
        raise ConfigError(f"{kind_name}: missing required field {key!r}", field=key)
    value = cfg[key]
    if kinds is not None and not isinstance(value, kinds):
        raise ConfigError(
            f"{kind_name}: field {key!r} has type {type(value).__name__}", field=key)
    return value


def _jsonable(obj):
    """Plain JSON types; non-finite floats become None (null) so output is strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _rows(records, header) -> list:
    """CSV rows: each record's values under the header's names."""
    return [[rec[key] for key in header] for rec in records]


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _config_hash(config: dict) -> str:
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# --------------------------------------------------------------------------
# kind handlers: (cfg, seed, threads, outdir) -> (results, csv_header, csv_rows, extra),
# extra being None or a writer of further files.  The CSV rows are _rows(records,
# header) of the kind's one record list, unless its columns are not record keys.


def _grid(cfg, key, kind, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"{kind}: missing required field {key!r}", field=key)
        return list(default)
    vals = cfg[key]
    if not isinstance(vals, list) or not vals:
        raise ConfigError(f"{kind}: field {key!r} must be a nonempty list", field=key)
    return vals


def _ref(cfg, key, kind):
    """Inline JSON object or a path to a JSON file holding one."""
    spec = _require(cfg, key, (dict, str), kind)
    return _load_object(spec, key) if isinstance(spec, str) else spec


def _estimator_block(cfg, kind):
    est = cfg.get("estimator", {})
    if not isinstance(est, dict):
        raise ConfigError(f"{kind}: 'estimator' must be an object", field="estimator")
    est = dict(est)
    block = {
        "t_ladder": tuple(est.pop("t_ladder", (0.04, 0.02, 0.01, 0.005))),
        "paths_per_rung": int(est.pop("paths", 10_000)),
        "radius": est.pop("R", None),
        "steps_per_rung": int(est.pop("steps_per_rung", 10)),
        "check_radius": bool(est.pop("check_radius", True)),
    }
    if est:
        raise ConfigError(f"{kind}: unknown estimator key(s) {sorted(est)}", field="estimator")
    return block


def _kind_simulate(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "simulate"))
    x0 = cfg.get("x0", 0.0)
    horizon = float(_require(cfg, "horizon", (int, float), "simulate"))
    step = float(_require(cfg, "step", (int, float), "simulate"))
    path = simulate_path(model, x0, horizon, step, seed)
    header = ["t"] + [f"x_{j + 1}" for j in range(path.d)]
    rows = [[t] + list(state) for t, state in zip(path.times, path.states)]
    results = {
        "terminal": path.states[-1].tolist(),
        "n_steps": int(len(path.times) - 1),
        "n_jumps": len(path.jumps),
        "jumps": [{"t": float(t), "size": v.tolist()} for t, v in path.jumps],
    }

    def extra(outdir):
        if cfg.get("binary", False):
            with open(outdir / "path.bin", "wb") as fh:
                path_to_binary(path, fh)

    return results, header, rows, extra


def _kind_symbol_analytic(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "symbol-analytic"))
    p = symbol_of_model(model)
    records = []
    for x in _grid(cfg, "x_grid", "symbol-analytic"):
        for xi in _grid(cfg, "xi_grid", "symbol-analytic"):
            val = p(np.atleast_1d(float(x)), np.atleast_1d(float(xi)))
            records.append({"x": x, "xi": xi, "re": val.real, "im": val.imag})
    header = ["x", "xi", "re", "im"]
    return {"records": records}, header, _rows(records, header), None


def _mc_records(estimates):
    records = []
    for e in estimates:
        records.append({
            "x": float(e.x[0]), "xi": float(e.xi[0]),
            "re": e.estimate.real, "im": e.estimate.imag, "se": e.se,
            "r_used": e.r_used,
            "rungs": [{"t": r.t, "re": r.value.real, "im": r.value.imag,
                       "se": r.se, "paths": r.n_paths,
                       "exited_fraction": r.exited_fraction} for r in e.rungs],
            "r_check": None if e.r_check is None else {
                "radius": e.r_check.radius, "re": e.r_check.estimate.real,
                "im": e.r_check.estimate.imag, "se": e.r_check.se,
                "consistent": e.r_check.consistent},
        })
    return records


def _kind_symbol_estimate(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "symbol-estimate"))
    est = _estimator_block(cfg, "symbol-estimate")
    xs = [float(v) for v in _grid(cfg, "x_grid", "symbol-estimate")]
    xis = [float(v) for v in _grid(cfg, "xi_grid", "symbol-estimate")]
    records = _mc_records(symbol_mc_table(model, xs, xis, seed=seed, threads=threads, **est))
    rows = [[e["x"], e["xi"], e["re"], e["im"], e["se"],
             e["r_check"]["consistent"] if e["r_check"] else True]
            for e in records]
    return ({"records": records},
            ["x", "xi", "re", "im", "se", "r_consistent"], rows, None)


def _kind_symbol_compare(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "symbol-compare"))
    p = symbol_of_model(model)
    est = _estimator_block(cfg, "symbol-compare")
    xs = [float(v) for v in _grid(cfg, "x_grid", "symbol-compare")]
    xis = [float(v) for v in _grid(cfg, "xi_grid", "symbol-compare")]
    records = []
    for e in symbol_mc_table(model, xs, xis, seed=seed, threads=threads, **est):
        exact = p(e.x, e.xi)
        err = abs(e.estimate - exact)
        tol = max(3.0 * e.se, 0.05 * (1.0 + abs(exact)))
        records.append({"x": float(e.x[0]), "xi": float(e.xi[0]),
                        "analytic_re": exact.real, "analytic_im": exact.imag,
                        "mc_re": e.estimate.real, "mc_im": e.estimate.imag,
                        "se": e.se, "abs_error": err, "tolerance": tol,
                        "pass": bool(err <= tol),
                        "r_consistent": bool(e.r_check.consistent if e.r_check else True)})
    header = ["x", "xi", "analytic_re", "analytic_im", "mc_re", "mc_im", "se",
              "pass", "r_consistent"]
    return ({"records": records, "all_pass": all(r["pass"] for r in records),
             "all_r_consistent": all(r["r_consistent"] for r in records)},
            header, _rows(records, header), None)


def _kind_generator_check(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "generator-check"))
    u = gaussian_bump(**cfg.get("test_function", {}))
    p = symbol_of_model(model)
    records = []
    for x in _grid(cfg, "x_grid", "generator-check"):
        xv = np.atleast_1d(float(x))
        trip = frozen_triplet(model.driver.triplet, model.coefficient, xv,
                              model.drift_coefficient)
        integro = generator_apply_integro(trip, u, xv)
        fourier = generator_apply_fourier(p, u, xv)
        diff = abs(integro - fourier)
        denom = max(abs(integro), abs(fourier), 1e-12)
        records.append({"x": float(x), "integro": integro, "fourier": fourier,
                        "abs_diff": diff, "rel_diff": diff / denom,
                        "agree": bool(diff <= max(1e-3 * denom, 1e-9))})
    header = ["x", "integro", "fourier", "rel_diff", "agree"]
    return ({"records": records,
             "max_abs_diff": max(r["abs_diff"] for r in records),
             "all_agree": all(r["agree"] for r in records)},
            header, _rows(records, header), None)


def _kind_indices(cfg, seed, threads, outdir):
    symbol = resolve_symbol(_require(cfg, "symbol", dict, "indices"))
    xs = [float(v) for v in _grid(cfg, "x_grid", "indices", default=[0.0])]
    box = cfg.get("x_box")
    report = build_index_report(
        symbol, xs,
        eta_max=float(cfg.get("eta_max", 1e8)),
        r_max=float(cfg.get("r_max", 1e4)),
        x_box=tuple(box) if box else None,
        r_table=[float(v) for v in cfg.get("r_table", (0.1, 1.0, 10.0, 100.0))],
        compute_beta0=bool(cfg.get("compute_beta0", True)))
    rows = [[r, h_up, h_low] for r, h_up, h_low in report.functional_table]
    return report.to_dict(), ["R", "H", "h"], rows, None


def _kind_index_transfer(cfg, seed, threads, outdir):
    driver = resolve_driver(_ref(cfg, "driver", "index-transfer"))
    phi = coeff.from_dict(_require(cfg, "coefficient", dict, "index-transfer"))
    xs = [float(v) for v in _grid(cfg, "x_grid", "index-transfer")]
    report = index_transfer_check(symbol_from_exponent(driver.exponent), phi, xs,
                                  eta_max=float(cfg.get("eta_max", 1e8)))
    rows = [[x, b, abs(b - report.beta_driver)] for x, b in report.per_x]
    return ({"beta_driver": report.beta_driver,
             "per_x": [{"x": x, "beta": b} for x, b in report.per_x],
             "max_deviation": report.max_deviation},
            ["x", "beta_inf", "deviation"], rows, None)


def _kind_variation(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "variation"))
    records = [vars(r) for r in variation_experiment(
        model,
        [float(g) for g in _grid(cfg, "gammas", "variation")],
        [int(k) for k in _grid(cfg, "levels", "variation")],
        int(cfg.get("trials", 16)), seed,
        horizon=float(cfg.get("horizon", 1.0)), x0=cfg.get("x0", 0.0))]
    header = ["gamma", "level", "median", "q25", "q75"]
    return {"rows": records}, header, _rows(records, header), None


def _kind_growth(cfg, seed, threads, outdir):
    model = resolve_model(_ref(cfg, "model", "growth"))
    profile = growth_experiment(
        model, float(cfg.get("x", 0.0)),
        [float(v) for v in _grid(cfg, "lambdas", "growth")],
        [float(v) for v in _grid(cfg, "t_small", "growth", default=[])],
        [float(v) for v in _grid(cfg, "t_large", "growth", default=[])],
        int(cfg.get("paths", 2000)), seed,
        steps_per_run=int(cfg.get("steps_per_run", 256)), threads=threads)
    records = [{"window": r.window, "t": r.t, "lambda": r.lam,
                "median_max": r.median_max, "scaled": r.scaled} for r in profile.rows]
    header = ["window", "t", "lambda", "median_max", "scaled"]
    return ({"rows": records,
             "trends": [{"window": w, "lambda": lam, **v}
                        for (w, lam), v in sorted(profile.trends.items())]},
            header, _rows(records, header), None)


def _kind_g_identity(cfg, seed, threads, outdir):
    d = int(cfg.get("d", 1))
    if "y_grid" in cfg:
        ys = [np.asarray(y, dtype=float) for y in cfg["y_grid"]]
    elif d == 1:
        ys = list(np.linspace(-10.0, 10.0, 41))
    elif d == 2:
        side = np.linspace(-10.0, 10.0, 10)
        ys = [np.array([a, b]) for a in side for b in side]
    else:
        raise ConfigError("g-identity: d must be 1 or 2", field="d")
    results = {"d": d, "max_residual": g_identity_check(d, ys), "n_points": len(ys)}
    header = ["d", "max_residual"]
    return results, header, _rows([results], header), None


def _kind_bound_diagnostic(cfg, seed, threads, outdir):
    if "model" in cfg:
        model = resolve_model(_ref(cfg, "model", "bound-diagnostic"))
        p = symbol_of_model(model)
        trip_field = lambda x: frozen_triplet(model.driver.triplet, model.coefficient, x,
                                              model.drift_coefficient)
    elif "driver" in cfg:
        driver = resolve_driver(cfg["driver"])
        p = symbol_from_exponent(driver.exponent)
        trip_field = lambda x: driver.triplet
    else:
        raise ConfigError("bound-diagnostic: need 'model' or 'driver'", field="model")
    box = cfg.get("box", [-1.0, 1.0])
    diag = symbol_bound_diagnostic(p, trip_field, (float(box[0]), float(box[1])),
                                   xi_max=float(cfg.get("xi_max", 100.0)))
    return (vars(diag), ["c_p", "triplet_norm", "unit_sup", "slack", "consistent"],
            [[diag.c_p, diag.triplet_norm, diag.unit_sup,
              diag.subadditivity_slack, diag.consistent]], None)


def feller_demo(t0: float, trials: int, seed: int, *, x0: float = 5.0,
                steps: int = 16, threads: int = 1) -> dict:
    """Empirical P(X_{t0} = x0) for dX = -X_- dN with binomial confidence band.

    The no-jump probability e^{-t0} is the exact reference; at t0 = ln 2 it
    equals 1/2.
    """
    if x0 == 0.0:
        raise ConfigError("feller-demo: x0 must be nonzero", field="x0")
    model = feller_demo_model()
    res = sde.simulate_ensemble(model.blocks(), None, np.array([x0]), t0, steps,
                            trials, seed, base_key=(TAG_EXPERIMENT, 2),
                            threads=threads)
    terminal = res.terminal[:, 0]
    freq = float(np.mean(terminal == x0))
    half = 1.96 * np.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
    return {"t0": float(t0), "trials": int(trials), "x0": float(x0),
            "frequency": freq, "ci_low": freq - half, "ci_high": freq + half,
            "expected": float(np.exp(-t0)),
            "frequency_at_zero": float(np.mean(terminal == 0.0))}


def _kind_feller_demo(cfg, seed, threads, outdir):
    report = feller_demo(
        float(cfg.get("t0", np.log(2.0))), int(cfg.get("trials", 100_000)), seed,
        x0=float(cfg.get("x0", 5.0)), steps=int(cfg.get("steps", 16)),
        threads=threads)
    header = ["t0", "trials", "frequency", "ci_low", "ci_high", "expected"]
    return report, header, _rows([report], header), None


_HANDLERS = {
    "simulate": _kind_simulate,
    "symbol-analytic": _kind_symbol_analytic,
    "symbol-estimate": _kind_symbol_estimate,
    "symbol-compare": _kind_symbol_compare,
    "generator-check": _kind_generator_check,
    "indices": _kind_indices,
    "index-transfer": _kind_index_transfer,
    "variation": _kind_variation,
    "growth": _kind_growth,
    "g-identity": _kind_g_identity,
    "bound-diagnostic": _kind_bound_diagnostic,
    "feller-demo": _kind_feller_demo,
}


# --------------------------------------------------------------------------
# runner


def run_config(kind: str, config: dict, seed: int, outdir, threads: int = 1) -> dict:
    """Execute one experiment; write results.json/results.csv/manifest.json."""
    if kind not in _HANDLERS:
        raise ConfigError(f"unknown experiment kind {kind!r}", field="kind")
    if seed is None:
        raise ConfigError("a master seed is required (config 'seed' or --seed)",
                          field="seed")
    outdir = Path(outdir)
    t0 = time.monotonic()
    try:
        results, header, rows, extra = _HANDLERS[kind](config, int(seed), threads, outdir)
    except (ConfigError, SymbolkitError):
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind}: invalid configuration: {exc}") from exc
    wall = time.monotonic() - t0

    resolved = dict(config)
    resolved["seed"] = int(seed)
    manifest = {
        "kind": kind,
        "seed": int(seed),
        "config": _jsonable(resolved),
        "config_hash": _config_hash(resolved),
        "versions": {"symbolkit": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "wall_time_s": wall,
        "outputs": ["results.json", "results.csv"],
    }
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"kind": kind, "seed": int(seed), "results": _jsonable(results)}
    with open(outdir / "results.json", "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    _write_csv(outdir / "results.csv", header, rows)
    if extra is not None:
        extra(outdir)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return manifest


def _load_object(path, field: str) -> dict:
    """The JSON object in file ``path``; any defect is a ConfigError naming ``field``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{field} file {p} does not exist", field=field)
    try:
        with open(p) as fh:
            obj = json.load(fh)
    except ValueError as exc:                 # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{field} file {p} is not valid JSON: {exc}",
                          field=field) from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{field} root must be a JSON object", field=field)
    return obj


def _load_manifest(path) -> dict:
    manifest = _load_object(path, "manifest")
    missing = [key for key in ("kind", "config", "seed") if key not in manifest]
    if missing:
        raise ConfigError(f"manifest {path} lacks {', '.join(missing)}", field="manifest")
    if not isinstance(manifest["config"], dict):
        raise ConfigError(f"manifest {path}: config must be a JSON object", field="manifest")
    return manifest


def _emit_error(exc: Exception, code: int, outdir) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, ConfigError) and exc.field:
        record["field"] = exc.field
    if isinstance(exc, QuadratureFailure):
        record["achieved"] = _jsonable(exc.achieved)
    if isinstance(exc, NonConvergence):
        record["diagnostics"] = _jsonable(exc.diagnostics)
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    print(line, file=sys.stderr)
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        with open(Path(outdir) / "error.json", "w", newline="\n") as fh:
            fh.write(line + "\n")
    except OSError:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbolkit",
        description="Symbols of Levy-driven SDE solutions: simulation, "
                    "estimation, and index diagnostics.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", type=str, default=None,
                        help="path to the experiment config JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config)")
        sp.add_argument("--out", type=str, default="symbolkit_out",
                        help="output directory")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SYMBOLKIT_THREADS or 1)")
    rp = sub.add_parser("rerun", help="replay an experiment from its manifest")
    rp.add_argument("--manifest", type=str, required=True)
    rp.add_argument("--out", type=str, default="symbolkit_out")
    rp.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = getattr(args, "out", "symbolkit_out")
    try:
        threads = args.threads
        if threads is None:
            raw = os.environ.get("SYMBOLKIT_THREADS", "1")
            try:
                threads = int(raw)
            except ValueError:
                raise ConfigError(f"SYMBOLKIT_THREADS must be an integer, got {raw!r}",
                                  field="SYMBOLKIT_THREADS") from None
        if args.kind == "rerun":
            manifest = _load_manifest(args.manifest)
            run_config(manifest["kind"], manifest["config"], manifest["seed"],
                       outdir, threads)
            return 0
        config = {} if args.config is None else _load_object(args.config, "config")
        seed = args.seed if args.seed is not None else config.get("seed")
        run_config(args.kind, config, seed, outdir, threads)
        return 0
    except ConfigError as exc:
        _emit_error(exc, 2, outdir)
        return 2
    except SymbolkitError as exc:
        _emit_error(exc, 3, outdir)
        return 3
    except (OSError, MemoryError) as exc:
        _emit_error(exc, 4, outdir)
        return 4


if __name__ == "__main__":
    sys.exit(main())
