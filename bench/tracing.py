"""Traced run: spans and counters around the calls into each symbolkit module.

Nothing under ``src/`` changes.  Each public function is replaced by a
timing wrapper where its caller looks it up: a module global for callers in
the same module (``levy.eval_exponent_many``, ``indices.big_H``), the name a
module bound at import (``cli.simulate_path``, ``symbols.simulate_ensemble``),
or a class attribute (``CoefficientField.many``).  ``scipy.integrate.quad``
must be wrapped before symbolkit is imported, because ``quadrature`` binds it
at import while ``levy`` imports it at call time; that wrapper stays a
pass-through until the tracer is switched to ``full``.

Spans are [name, start, end, parent index, pass/job label], kept in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Spans are recorded on the main thread only;
the traced pass runs at threads=1, and the threads=2 pass that gives
``sde.ensemble.speedup_2t`` records only the ensemble spans, which are opened
on the main thread.
"""

from __future__ import annotations

import functools
import threading
import time
import warnings
from collections import defaultdict

import numpy as np

VARIANTS = ("gauss", "atoms", "law", "stable", "density")
CLI_KINDS = ("symbol-compare", "feller-demo", "growth", "indices", "index-transfer",
             "bound-diagnostic", "g-identity", "generator-check", "symbol-analytic",
             "simulate", "variation")

# (name, unit, better) for every per-layer metric, in report order
LAYER_METRICS = (
    [m for v in VARIANTS for m in ((f"levy.psi.{v}.freqs", "count", "higher"),
                                   (f"levy.psi.{v}.us_per_freq", "us", "lower"))]
    + [("levy.density_form.builds", "count", "lower"),
       ("levy.density_form.build_s", "s", "lower"),
       ("levy.sample.path_steps", "count", "higher")]
    + [m for v in VARIANTS for m in ((f"levy.sample.{v}.path_steps", "count", "higher"),
                                     (f"levy.sample.{v}.ns_per_path_step", "ns", "lower"))]
    + [("quadrature.quad.calls", "count", "lower"),
       ("quadrature.quad.s", "s", "lower"),
       ("quadrature.integration_warnings", "count", "lower"),
       ("quadrature.failures", "count", "lower"),
       ("coefficients.many.rows", "count", "higher"),
       ("coefficients.many.ns_per_row", "ns", "lower"),
       ("coefficients.point.calls", "count", "lower"),
       ("coefficients.point.us_per_call", "us", "lower"),
       ("sde.ensemble.path_steps", "count", "higher"),
       ("sde.ensemble.ns_per_path_step", "ns", "lower"),
       ("sde.ensemble.self_ns_per_path_step", "ns", "lower"),
       ("sde.ensemble.paths", "count", "higher"),
       ("sde.ensemble.exited_frac", "ratio", "lower"),
       ("sde.ensemble.speedup_2t", "ratio", "higher"),
       ("sde.path.steps", "count", "higher"),
       ("sde.path.us_per_step", "us", "lower"),
       ("sde.path.self_us_per_step", "us", "lower"),
       ("sde.dense.path_steps", "count", "higher"),
       ("sde.dense.ns_per_path_step", "ns", "lower"),
       ("sde.export.bytes", "bytes", "lower"),
       ("sde.export.s", "s", "lower"),
       ("seeding.rng.calls", "count", "lower"),
       ("seeding.rng.s", "s", "lower"),
       ("symbols.mc.values", "count", "higher"),
       ("symbols.mc.self_s", "s", "lower"),
       ("symbols.mc.ns_per_value", "ns", "lower"),
       ("symbols.generator.calls", "count", "higher"),
       ("symbols.generator.fourier_s", "s", "lower"),
       ("symbols.generator.integro_s", "s", "lower"),
       ("symbols.point_evals", "count", "lower"),
       ("symbols.batch_points", "count", "lower"),
       ("indices.big_H.calls", "count", "lower"),
       ("indices.big_H.self_s", "s", "lower"),
       ("indices.small_h.self_s", "s", "lower"),
       ("indices.beta_inf.self_s", "s", "lower"),
       ("indices.beta_zero.self_s", "s", "lower"),
       ("indices.bound.self_s", "s", "lower"),
       ("indices.symbol_points", "count", "lower"),
       ("pathstats.gamma_variation.points", "count", "higher"),
       ("pathstats.gamma_variation.us_per_point", "us", "lower"),
       ("pathstats.variation.self_s", "s", "lower"),
       ("pathstats.growth.self_s", "s", "lower")]
    + [(f"cli.{k}.s", "s", "lower") for k in CLI_KINDS]
    + [("cli.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "lower"),
       ("catalog.resolve_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def variant(measure) -> str:
    """Jump-measure variant name used in the levy metric names."""
    kind = type(measure).__name__
    if kind == "FiniteActivity":
        return "atoms" if type(measure.law).__name__ == "AtomLaw" else "law"
    return {"ZeroMeasure": "gauss", "StableSymmetric": "stable",
            "DensityForm": "density"}[kind]


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.label = None
        self.full = False
        self._main = threading.get_ident()
        self._patched = []

    def reset(self):
        self.spans, self.stack, self.counts = [], [], defaultdict(float)

    def recording(self) -> bool:
        return threading.get_ident() == self._main

    def in_layer(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.label]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def spanned(self, fn, name, count=None):
        """Wrapper timing fn as a span; ``name`` may be a function of the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            result = tracer.call(label, fn, *args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, count):
        """Wrapper that only counts, for calls too frequent or too small to span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording():
                count(tracer, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def quad_wrapper(self, quad):
        """scipy.integrate.quad wrapper; counts IntegrationWarning while full."""
        from scipy.integrate import IntegrationWarning

        tracer = self

        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            if not (tracer.full and tracer.recording()):
                return quad(*args, **kwargs)
            tracer.counts["quadrature.quad.calls"] += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                result = tracer.call("quadrature.quad", quad, *args, **kwargs)
            tracer.counts["quadrature.integration_warnings"] += sum(
                issubclass(w.category, IntegrationWarning) for w in caught)
            return result
        return wrapper

    def patch(self, obj, attr, wrapper_of):
        original = getattr(obj, attr)
        self._patched.append((obj, attr, original))
        setattr(obj, attr, wrapper_of(original))

    def uninstall(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    # ------------------------------------------------------------------
    # sites

    def install_ensemble(self, sk):
        """Only the ensemble spans: used for the threads=1 / threads=2 timing pair."""
        for mod in (sk.sde, sk.symbols, sk.pathstats):
            self.patch(mod, "simulate_ensemble",
                       lambda f: self.spanned(f, "sde.ensemble"))

    def install_full(self, sk):
        cli, levy, sde, symbols, pathstats, indices = (
            sk.cli, sk.levy, sk.sde, sk.symbols, sk.pathstats, sk.indices)
        S = self.spanned
        for mod in (sde, symbols, pathstats):
            self.patch(mod, "simulate_ensemble", lambda f: S(f, "sde.ensemble", _count_ensemble))
        self.patch(pathstats, "simulate_paths_dense", lambda f: S(f, "sde.dense", _count_dense))
        for mod, attr in ((cli, "simulate_path"), (sde, "simulate_multi")):
            self.patch(mod, attr, lambda f: S(f, "sde.path", _count_path))
        for mod in (cli, sde):
            self.patch(mod, "path_to_binary", lambda f: S(f, "sde.export", _count_export))
        self.patch(sde, "rng_at", lambda f: S(f, "seeding.rng", _counter("seeding.rng.calls")))
        self.patch(levy, "sample_step_ensemble", lambda f: S(
            f, lambda a, k: "levy.sample." + variant(a[0].levy_measure), _count_sample))
        self.patch(levy, "eval_exponent_many", lambda f: S(
            f, lambda a, k: "levy.psi." + variant(a[0].levy_measure), _count_psi))
        self.patch(levy.DensityForm, "__init__", lambda f: S(
            f, "levy.density_form", _counter("levy.density_form.builds")))
        field = sk.coefficients.CoefficientField
        self.patch(field, "many", lambda f: S(f, "coefficients.many", _count_rows))
        self.patch(field, "__call__", lambda f: S(
            f, "coefficients.point", _counter("coefficients.point.calls")))
        self.patch(cli, "symbol_mc_table", lambda f: S(f, "symbols.mc", _count_mc))
        for form in ("fourier", "integro"):
            self.patch(cli, f"generator_apply_{form}", lambda f, form=form: S(
                f, f"symbols.generator.{form}", _counter("symbols.generator.calls")))
        self.patch(symbols.SymbolField, "__call__",
                   lambda f: self.counted(f, _count_symbol_point))
        self.patch(symbols.SymbolField, "many",
                   lambda f: self.counted(f, _count_symbol_batch))
        for attr in ("beta_inf", "big_H", "small_h", "beta_zero"):
            counter = _counter("indices.big_H.calls") if attr == "big_H" else None
            self.patch(indices, attr, lambda f, a=attr, c=counter: S(f, f"indices.{a}", c))
        for attr, name in (("build_index_report", "indices.report"),
                           ("index_transfer_check", "indices.transfer"),
                           ("symbol_bound_diagnostic", "indices.bound"),
                           ("g_identity_check", "indices.g_identity")):
            self.patch(cli, attr, lambda f, n=name: S(f, n))
        self.patch(pathstats, "gamma_variation", lambda f: S(
            f, "pathstats.gamma_variation", _count_gamma))
        self.patch(cli, "variation_experiment", lambda f: S(f, "pathstats.variation"))
        self.patch(cli, "growth_experiment", lambda f: S(f, "pathstats.growth"))
        for attr in ("resolve_model", "resolve_driver", "resolve_symbol"):
            self.patch(cli, attr, lambda f: S(f, "catalog.resolve"))
        self.patch(sk.errors.QuadratureFailure, "__init__",
                   lambda f: self.counted(f, _counter("quadrature.failures")))


# ----------------------------------------------------------------------
# counters: (tracer, args, kwargs, result)


def _counter(key):
    def count(tracer, args, kwargs, result=None):
        tracer.counts[key] += 1
    return count


def _count_ensemble(t, a, k, res):
    n_steps, n_paths = _arg(a, k, 4, "n_steps"), _arg(a, k, 5, "n_paths")
    t.counts["sde.ensemble.path_steps"] += n_steps * n_paths
    t.counts["sde.ensemble.paths"] += n_paths
    t.counts["sde.ensemble.exited"] += int(res.exited.sum())


def _count_dense(t, a, k, res):
    t.counts["sde.dense.path_steps"] += _arg(a, k, 4, "n_steps") * _arg(a, k, 5, "n_paths")


def _count_path(t, a, k, res):
    t.counts["sde.path.steps"] += res.times.shape[0] - 1


def _count_export(t, a, k, res):
    path = _arg(a, k, 0, "path")
    n = path.times.shape[0]
    t.counts["sde.export.bytes"] += 24 + 8 * n * (1 + path.d)


def _count_sample(t, a, k, res):
    m = _arg(a, k, 2, "m")
    t.counts["levy.sample.path_steps"] += m
    t.counts[f"levy.sample.{variant(a[0].levy_measure)}.path_steps"] += m


def _count_psi(t, a, k, res):
    t.counts[f"levy.psi.{variant(a[0].levy_measure)}.freqs"] += len(res)


def _count_rows(t, a, k, res):
    t.counts["coefficients.many.rows"] += res.shape[0]


def _count_mc(t, a, k, res):
    paths = k.get("paths_per_rung", 10_000)
    variants = 2 if k.get("check_radius", True) else 1
    rungs = len(k.get("t_ladder", (0.04, 0.02, 0.01, 0.005)))
    t.counts["symbols.mc.values"] += len(res) * rungs * variants * paths


def _count_gamma(t, a, k, res):
    t.counts["pathstats.gamma_variation.points"] += res.grid_size


def _count_symbol_point(t, a, k):
    t.counts["symbols.point_evals"] += 1
    if t.in_layer("indices."):
        t.counts["indices.symbol_points"] += 1


def _count_symbol_batch(t, a, k):
    rows = np.asarray(a[1]).size // a[0].d
    t.counts["symbols.batch_points"] += rows
    if t.in_layer("indices."):
        t.counts["indices.symbol_points"] += rows


# ----------------------------------------------------------------------
# metrics


def span_times(spans):
    """(total, self) seconds per span name.

    The total counts a span only when no ancestor has the same name, so a
    quad inside a quad's integrand is not counted twice.
    """
    total, own, child = defaultdict(float), defaultdict(float), [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += end - start
    return total, own


def layer_metrics(spans, counts, *, speedup_2t: float, overhead_frac: float) -> dict:
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    total, own = span_times(spans)
    c = counts

    def per(seconds, n, scale):
        return seconds * scale / n if n else 0.0

    def prefixed(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    v = {}
    for var in VARIANTS:
        n = c[f"levy.psi.{var}.freqs"]
        v[f"levy.psi.{var}.freqs"] = n
        v[f"levy.psi.{var}.us_per_freq"] = per(total[f"levy.psi.{var}"], n, 1e6)
        n = c[f"levy.sample.{var}.path_steps"]
        v[f"levy.sample.{var}.path_steps"] = n
        v[f"levy.sample.{var}.ns_per_path_step"] = per(total[f"levy.sample.{var}"], n, 1e9)
    v["levy.density_form.builds"] = c["levy.density_form.builds"]
    v["levy.density_form.build_s"] = total["levy.density_form"]
    v["levy.sample.path_steps"] = c["levy.sample.path_steps"]
    v["quadrature.quad.calls"] = c["quadrature.quad.calls"]
    v["quadrature.quad.s"] = total["quadrature.quad"]
    v["quadrature.integration_warnings"] = c["quadrature.integration_warnings"]
    v["quadrature.failures"] = c["quadrature.failures"]
    v["coefficients.many.rows"] = c["coefficients.many.rows"]
    v["coefficients.many.ns_per_row"] = per(total["coefficients.many"],
                                            c["coefficients.many.rows"], 1e9)
    v["coefficients.point.calls"] = c["coefficients.point.calls"]
    v["coefficients.point.us_per_call"] = per(total["coefficients.point"],
                                              c["coefficients.point.calls"], 1e6)
    n = c["sde.ensemble.path_steps"]
    v["sde.ensemble.path_steps"] = n
    v["sde.ensemble.ns_per_path_step"] = per(total["sde.ensemble"], n, 1e9)
    v["sde.ensemble.self_ns_per_path_step"] = per(own["sde.ensemble"], n, 1e9)
    v["sde.ensemble.paths"] = c["sde.ensemble.paths"]
    v["sde.ensemble.exited_frac"] = per(c["sde.ensemble.exited"], c["sde.ensemble.paths"], 1)
    v["sde.ensemble.speedup_2t"] = speedup_2t
    n = c["sde.path.steps"]
    v["sde.path.steps"] = n
    v["sde.path.us_per_step"] = per(total["sde.path"], n, 1e6)
    v["sde.path.self_us_per_step"] = per(own["sde.path"], n, 1e6)
    n = c["sde.dense.path_steps"]
    v["sde.dense.path_steps"] = n
    v["sde.dense.ns_per_path_step"] = per(total["sde.dense"], n, 1e9)
    v["sde.export.bytes"] = c["sde.export.bytes"]
    v["sde.export.s"] = total["sde.export"]
    v["seeding.rng.calls"] = c["seeding.rng.calls"]
    v["seeding.rng.s"] = total["seeding.rng"]
    n = c["symbols.mc.values"]
    v["symbols.mc.values"] = n
    v["symbols.mc.self_s"] = own["symbols.mc"]
    v["symbols.mc.ns_per_value"] = per(own["symbols.mc"], n, 1e9)
    v["symbols.generator.calls"] = c["symbols.generator.calls"]
    v["symbols.generator.fourier_s"] = total["symbols.generator.fourier"]
    v["symbols.generator.integro_s"] = total["symbols.generator.integro"]
    v["symbols.point_evals"] = c["symbols.point_evals"]
    v["symbols.batch_points"] = c["symbols.batch_points"]
    v["indices.big_H.calls"] = c["indices.big_H.calls"]
    for name in ("big_H", "small_h", "beta_inf", "beta_zero", "bound"):
        v[f"indices.{name}.self_s"] = own[f"indices.{name}"]
    v["indices.symbol_points"] = c["indices.symbol_points"]
    n = c["pathstats.gamma_variation.points"]
    v["pathstats.gamma_variation.points"] = n
    v["pathstats.gamma_variation.us_per_point"] = per(total["pathstats.gamma_variation"],
                                                      n, 1e6)
    v["pathstats.variation.self_s"] = own["pathstats.variation"]
    v["pathstats.growth.self_s"] = own["pathstats.growth"]
    for kind in CLI_KINDS:
        v[f"cli.{kind}.s"] = total[f"cli.{kind}"]
    v["cli.self_s"] = prefixed("cli.", own)
    v["cli.output_bytes"] = c["cli.output_bytes"]
    v["catalog.resolve_s"] = total["catalog.resolve"]
    v["trace.overhead_frac"] = overhead_frac
    return {name: {"value": float(v[name]), "unit": unit}
            for name, unit, _ in LAYER_METRICS}
