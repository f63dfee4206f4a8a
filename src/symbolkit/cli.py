"""symbolkit: batch experiment runner.

One subcommand per experiment kind; every run takes a JSON config, a master
seed, and an output directory, and writes results.json, results.csv and
manifest.json.  Result files are a pure function of (config, seed): floats
are serialized with shortest round-trip repr, JSON keys are sorted, and all
parallelism is chunked deterministically, so reruns and different --threads
settings produce byte-identical results.  ``--threads K`` runs K workers
through ``sde.ordered_map``: the path chunks of one ensemble in
``feller-demo`` and ``growth``, and every rung ensemble of the whole table in
``symbol-estimate`` and ``symbol-compare``.  The manifest records the resolved
config, its hash, package versions and wall time; ``symbolkit rerun``
replays a manifest.

A kind's config keys are its handler's keyword-only parameters, each annotated
with the key's type; ``_call`` converts every key in signature order, so a
config with two faults names the first faulty key in that order.

Exit codes: 0 success, 2 config/schema violation, 3 numerical failure,
4 I/O error or an allocation that cannot be met.  Failures emit a
machine-readable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, sde
from . import coefficients as coeff
from .catalog import (feller_demo_model, resolve_driver, resolve_model,
                      resolve_symbol)
from .errors import ConfigError, NonConvergence, QuadratureFailure, SymbolkitError
from .sde import path_to_binary, simulate_path
from .seeding import TAG_EXPERIMENT
from .symbols import (DEFAULT_LADDER, frozen_triplet, gaussian_bump,
                      generator_apply_fourier, generator_apply_integro, symbol_from_exponent,
                      symbol_mc_table, symbol_of_model)


def _on_first_call(module: str, name: str):
    """A stand-in for ``symbolkit.<module>.<name>`` that loads the module when first called.

    Only the kinds that use ``indices`` or ``pathstats`` pay for loading them.  The
    stand-in is a plain attribute of this module, so it can be patched like any
    imported name.
    """
    package = sys.modules[__package__]

    def call(*args, **kwargs):
        return getattr(getattr(package, module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


build_index_report = _on_first_call("indices", "build_index_report")
index_transfer_check = _on_first_call("indices", "index_transfer_check")
symbol_bound_diagnostic = _on_first_call("indices", "symbol_bound_diagnostic")
g_identity_check = _on_first_call("indices", "g_identity_check")
variation_experiment = _on_first_call("pathstats", "variation_experiment")
growth_experiment = _on_first_call("pathstats", "growth_experiment")

# --------------------------------------------------------------------------
# config helpers


def _call(fn, spec, where: str, *args):
    """fn(*args, **config): fn's keyword-only parameters are the keys of the JSON object spec.

    An unknown or missing key is a ConfigError naming it.  Then each value, given or default,
    goes through its annotation, the key's type, in signature order; a None default stays.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object", field=where)
    params = [p for p in inspect.signature(fn, eval_str=True).parameters.values()
              if p.kind is p.KEYWORD_ONLY]
    unknown = sorted(set(spec) - {p.name for p in params})
    missing = [p.name for p in params if p.default is p.empty and p.name not in spec]
    for keys, what in ((unknown, "unknown key(s) {}"), (missing, "missing required key(s) {}")):
        if keys:
            raise ConfigError(f"{where}: " + what.format(keys), field=keys[0])
    config = {}
    for p in params:
        value = spec.get(p.name, p.default)
        if p.annotation is bool and not isinstance(value, bool):
            raise ConfigError(f"{where}: key(s) {[p.name]} must be true or false", field=p.name)
        if p.annotation is not bool and (value is not None or p.default is not None):
            value = p.annotation(value, p.name)
        config[p.name] = value
    return fn(*args, **config)


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
    if type(value) is float:
        return repr(value)
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


_CSV_BLOCK = 2048       # rows formatted at once


def _write_csv(path: Path, header, rows):
    """Write the header and the rows, a list of lists or a 2-d float array.

    The rows are formatted ``_CSV_BLOCK`` at a time, an array's as the
    Python floats of ``tolist``, so a long path is never held as text or as
    lists whole.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo:lo + _CSV_BLOCK]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write("".join(",".join(map(_fmt, row)) + "\n" for row in block))


def _config_hash(config: dict) -> str:
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# --------------------------------------------------------------------------
# kind handlers: (seed, threads, /, **config) -> (results, csv_header, csv_rows, extra),
# extra being None or a writer of further files.  A handler's keyword-only parameters
# are its kind's config keys, each annotated with its type and given its default.  The
# CSV rows are _rows(records, header) of the kind's one record list, unless its columns
# are not record keys; simulate hands over its (n+1, 1+d) array of times and states.  A
# key's type is a converter (value, key) -> value that refuses a value with a ConfigError
# naming the key, or bool.


def Real(value, key: str) -> float:
    """A finite real number as a float; a bool, a string, a list, NaN or +-inf is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} {value!r} is not a number", field=key)
    try:
        real = float(value)
    except OverflowError:                   # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{key} {value!r} is not a finite number", field=key)
    return real


def Positive(value, key: str) -> float:
    """A positive finite real number as a float."""
    real = Real(value, key)
    if not real > 0.0:
        raise ConfigError(f"{key} must be positive, got {value!r}", field=key)
    return real


def State(value, key: str):
    """A state: one real number, or a list of them when d > 1."""
    return [Real(v, key) for v in value] if isinstance(value, list) else Real(value, key)


def Whole(least: int, what: str | None = None):
    """A whole number of at least ``least`` as an int; messages call it ``what`` or the key."""
    def whole(value, key: str) -> int:
        name = what or key
        if isinstance(value, bool) or not (isinstance(value, int)
                                           or isinstance(value, float) and value.is_integer()):
            raise ConfigError(f"{name} {value!r} is not a whole number", field=key)
        if value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value!r}", field=key)
        return int(value)
    return whole


def Grid(entry, empty: bool = False):
    """A list of ``entry`` values, nonempty unless ``empty``."""
    def grid(vals, key: str) -> list:
        if not isinstance(vals, (list, tuple)) or not (vals or empty):
            raise ConfigError(f"field {key!r} must be a {'' if empty else 'nonempty '}list",
                              field=key)
        return [entry(v, key) for v in vals]
    return grid


def Resolved(spec, key: str):
    """The object that ``key`` describes, from an inline object or the path of a JSON file
    holding one.  The resolver is looked up here at each call, so a patched one is used."""
    if isinstance(spec, str):
        spec = _load_object(spec, key)
    elif not isinstance(spec, dict):
        raise ConfigError(f"field {key!r} has type {type(spec).__name__}", field=key)
    resolve = {"model": resolve_model, "driver": resolve_driver, "symbol": resolve_symbol,
               "coefficient": coeff.from_dict,
               "test_function": lambda spec: gaussian_bump(**spec)}[key]
    try:
        return resolve(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}", field=key) from exc


def Box(spec, key: str) -> tuple:
    """``[lo, hi]``: two finite numbers."""
    if not isinstance(spec, (list, tuple)) or len(spec) != 2:
        raise ConfigError(f"bound-diagnostic: {key!r} must hold exactly two numbers", field=key)
    return Real(spec[0], key), Real(spec[1], key)


def XBox(spec, key: str) -> tuple:
    """``[lo, hi, count]``: finite lo < hi and a whole count of at least 1."""
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"{key} {spec!r} is not [lo, hi, count]", field=key)
    lo, hi = Real(spec[0], key), Real(spec[1], key)
    if not lo < hi:
        raise ConfigError(f"{key} needs lo < hi, got lo {lo!r} and hi {hi!r}", field=key)
    return lo, hi, Whole(1, f"{key} count")(spec[2], key)


def _estimator(*, R: Positive = None, t_ladder: Grid(Real) = DEFAULT_LADDER,
               paths: Whole(1000) = 10_000, steps_per_rung: Whole(2) = 10,
               check_radius: bool = True) -> dict:
    """symbol_mc_table's keywords from the estimator block."""
    sde.check_ensemble_size(paths, steps_per_rung, "paths", "steps_per_rung")
    return {"t_ladder": t_ladder, "paths_per_rung": paths, "radius": R,
            "steps_per_rung": steps_per_rung, "check_radius": check_radius}


Estimator = functools.partial(_call, _estimator)    # (spec, key): the estimator block


def _kind_simulate(seed, threads, /, *, model: Resolved, horizon: Real, step: Real,
                   x0: State = 0.0, binary: bool = False):
    path = simulate_path(model, x0, horizon, step, seed)
    header = ["t"] + [f"x_{j + 1}" for j in range(path.d)]
    rows = np.column_stack((path.times, path.states))
    results = {
        "terminal": path.states[-1].tolist(),
        "n_steps": int(len(path.times) - 1),
        "n_jumps": len(path.jumps),
        "jumps": [{"t": float(t), "size": v.tolist()} for t, v in path.jumps],
    }

    def extra(outdir):
        if binary:
            with open(outdir / "path.bin", "wb") as fh:
                path_to_binary(path, fh)

    return results, header, rows, extra


def _kind_symbol_analytic(seed, threads, /, *, model: Resolved, x_grid: Grid(Real),
                          xi_grid: Grid(Real)):
    p = symbol_of_model(model)
    records = []
    for x in x_grid:
        for xi in xi_grid:
            val = p(np.atleast_1d(x), np.atleast_1d(xi))
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


def _kind_symbol_estimate(seed, threads, /, *, model: Resolved, x_grid: Grid(Real),
                          xi_grid: Grid(Real), estimator: Estimator = {}):
    records = _mc_records(symbol_mc_table(model, x_grid, xi_grid, seed=seed, threads=threads,
                                          **estimator))
    rows = [[e["x"], e["xi"], e["re"], e["im"], e["se"],
             e["r_check"]["consistent"] if e["r_check"] else True]
            for e in records]
    return ({"records": records},
            ["x", "xi", "re", "im", "se", "r_consistent"], rows, None)


def _kind_symbol_compare(seed, threads, /, *, model: Resolved, x_grid: Grid(Real),
                         xi_grid: Grid(Real), estimator: Estimator = {}):
    p = symbol_of_model(model)
    records = []
    for e in symbol_mc_table(model, x_grid, xi_grid, seed=seed, threads=threads, **estimator):
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


def _kind_generator_check(seed, threads, /, *, model: Resolved, x_grid: Grid(Real),
                          test_function: Resolved = {}):
    p = symbol_of_model(model)
    records = []
    for x in x_grid:
        xv = np.atleast_1d(x)
        trip = frozen_triplet(model.driver, model.coefficient, xv, model.drift_coefficient)
        integro = generator_apply_integro(trip, test_function, xv)
        fourier = generator_apply_fourier(p, test_function, xv)
        diff = abs(integro - fourier)
        denom = max(abs(integro), abs(fourier), 1e-12)
        records.append({"x": x, "integro": integro, "fourier": fourier,
                        "abs_diff": diff, "rel_diff": diff / denom,
                        "agree": bool(diff <= max(1e-3 * denom, 1e-9))})
    header = ["x", "integro", "fourier", "rel_diff", "agree"]
    return ({"records": records,
             "max_abs_diff": max(r["abs_diff"] for r in records),
             "all_agree": all(r["agree"] for r in records)},
            header, _rows(records, header), None)


def _kind_indices(seed, threads, /, *, symbol: Resolved, x_grid: Grid(Real) = (0.0,),
                  x_box: XBox = None, eta_max: Real = 1e8, r_max: Real = 1e4,
                  r_table: Grid(Real, empty=True) = (0.1, 1.0, 10.0, 100.0),
                  compute_beta0: bool = True):
    report = build_index_report(symbol, x_grid, eta_max=eta_max, r_max=r_max, x_box=x_box,
                                r_table=r_table, compute_beta0=compute_beta0)
    return report.to_dict(), ["R", "H", "h"], report.functional_table, None


def _kind_index_transfer(seed, threads, /, *, driver: Resolved, coefficient: Resolved,
                         x_grid: Grid(Real), eta_max: Real = 1e8):
    report = index_transfer_check(driver, coefficient, x_grid, eta_max=eta_max)
    rows = [[x, b, abs(b - report.beta_driver)] for x, b in report.per_x]
    return ({"beta_driver": report.beta_driver,
             "per_x": [{"x": x, "beta": b} for x, b in report.per_x],
             "max_deviation": report.max_deviation},
            ["x", "beta_inf", "deviation"], rows, None)


def _kind_variation(seed, threads, /, *, model: Resolved, gammas: Grid(Real),
                    levels: Grid(Whole(0, "level")), trials: Whole(1) = 16,
                    horizon: Real = 1.0, x0: State = 0.0):
    records = [vars(r) for r in variation_experiment(model, gammas, levels, trials, seed,
                                                     horizon=horizon, x0=x0)]
    header = ["gamma", "level", "median", "q25", "q75"]
    return {"rows": records}, header, _rows(records, header), None


def _kind_growth(seed, threads, /, *, model: Resolved, lambdas: Grid(Real), x: Real = 0.0,
                 t_small: Grid(Real, empty=True) = (), t_large: Grid(Real, empty=True) = (),
                 paths: Whole(1) = 2000, steps_per_run: Whole(1) = 256):
    profile = growth_experiment(model, x, lambdas, t_small, t_large, paths, seed,
                                steps_per_run=steps_per_run, threads=threads)
    records = [{"window": r.window, "t": r.t, "lambda": r.lam,
                "median_max": r.median_max, "scaled": r.scaled} for r in profile.rows]
    header = ["window", "t", "lambda", "median_max", "scaled"]
    return ({"rows": records,
             "trends": [{"window": w, "lambda": lam, **v}
                        for (w, lam), v in sorted(profile.trends.items())]},
            header, _rows(records, header), None)


def _kind_g_identity(seed, threads, /, *, d: Whole(1) = 1, y_grid: Grid(State) = None):
    if y_grid is not None:
        ys = y_grid
    elif d == 1:
        ys = list(np.linspace(-10.0, 10.0, 41))
    else:
        side = np.linspace(-10.0, 10.0, 10)
        ys = [np.array([a, b]) for a in side for b in side]
    results = {"d": d, "max_residual": g_identity_check(d, ys), "n_points": len(ys)}
    header = ["d", "max_residual"]
    return results, header, _rows([results], header), None


def _kind_bound_diagnostic(seed, threads, /, *, model: Resolved = None,
                           driver: Resolved = None, box: Box = (-1.0, 1.0),
                           xi_max: Real = 100.0):
    if (model is None) == (driver is None):
        raise ConfigError("bound-diagnostic: need exactly one of 'model' and 'driver'",
                          field="model")
    if model is not None:
        p = symbol_of_model(model)
        trip_field = lambda x: frozen_triplet(model.driver, model.coefficient, x,
                                              model.drift_coefficient)
    else:
        p = symbol_from_exponent(driver)
        trip_field = lambda x: driver
    diag = symbol_bound_diagnostic(p, trip_field, box, xi_max=xi_max)
    return (vars(diag), ["c_p", "triplet_norm", "unit_sup", "slack", "consistent"],
            [[diag.c_p, diag.triplet_norm, diag.unit_sup,
              diag.subadditivity_slack, diag.consistent]], None)


def feller_demo(t0: float, trials: int, seed: int, *, x0: float = 5.0,
                steps: int = 16, threads: int = 1) -> dict:
    """Empirical P(X_{t0} = x0) for dX = -X_- dN with binomial confidence band.

    The no-jump probability e^{-t0} is the exact reference; at t0 = ln 2 it
    equals 1/2.  A t0 whose expected jumps in one step of one chunk take more
    than ``sde.MAX_PATH_BYTES`` at 16 bytes each is refused naming ``t0``.
    """
    if x0 == 0.0:
        raise ConfigError("feller-demo: x0 must be nonzero", field="x0")
    if not t0 > 0.0:
        raise ConfigError(f"feller-demo: t0 must be positive, got {t0!r}", field="t0")
    sde.check_ensemble_size(trials, steps, "trials", "steps")
    model = feller_demo_model()
    jumps = model.driver.levy_measure.activity * (t0 / steps) * min(trials, sde.DEFAULT_CHUNK)
    if not jumps <= sde.MAX_PATH_BYTES // 16:
        raise ConfigError(f"feller-demo: t0 {t0!r} over {steps} steps is {jumps:.6g} jumps "
                          f"in a step of a chunk, past {sde.MAX_PATH_BYTES} bytes at 16 each",
                          field="t0")
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


def _kind_feller_demo(seed, threads, /, *, t0: Real = math.log(2.0),
                      trials: Whole(1) = 100_000, x0: Real = 5.0, steps: Whole(1) = 16):
    report = feller_demo(t0, trials, seed, x0=x0, steps=steps, threads=threads)
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
KINDS = tuple(_HANDLERS)


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
    keys = {key: value for key, value in config.items() if key != "seed"}
    t0 = time.monotonic()
    try:
        results, header, rows, extra = _call(_HANDLERS[kind], keys, kind, int(seed), threads)
    except SymbolkitError:                  # a ConfigError among them, although a ValueError
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
    except (SymbolkitError, ArithmeticError) as exc:     # a float overflow is numerical too
        _emit_error(exc, 3, outdir)
        return 3
    except (OSError, MemoryError) as exc:
        _emit_error(exc, 4, outdir)
        return 4


if __name__ == "__main__":
    sys.exit(main())
