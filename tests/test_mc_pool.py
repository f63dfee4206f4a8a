"""The pooled Monte Carlo symbol table against the serial oracle in reference_mc.

``symbol_mc_table`` runs every (x, variant, rung) ensemble of a table as one
task of one ``sde.ordered_map`` and forms the per-path values and rung
statistics in the workers, a -xi from xi's e^{i theta}.  It must reproduce the serial table bit for bit
at any thread count (equality on the int64 view, so signed zeros count),
raise the error the serial table meets first, and leave no worker behind.
"""

import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_mc as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co, sde, symbols
from symbolkit.coefficients import CoefficientField
from symbolkit.errors import NonConvergence, SimulationOverflow
from symbolkit.levy import CHUNK_ROWS, AtomLaw, FiniteActivity, LevyTriplet, expi
from symbolkit.sde import ordered_map, simulate_ensemble

README_XI = [-3.0, -1.0, 0.5, 1.5, 3.0]
PAIRED_XI = [-3.0, 3.0, 1.0, 1.0, 0.0, -0.0, -1.0, 0.5]     # +-xi, a repeat, xi = +-0


def _bits(v):
    return np.asarray([v], dtype=complex).view(np.int64).tolist()


def _array_bits(a):
    return (a.shape, np.ascontiguousarray(a, dtype=float).view(np.int64).tolist())


def _fields(e):
    """Every field of a SymbolEstimate, floats as their bits."""
    out = [_array_bits(e.x), _array_bits(e.xi), _bits(e.estimate), _bits(e.se),
           _bits(e.r_used), e.ladder, e.paths_per_rung]
    for r in e.rungs:
        out.append((_bits(r.t), _bits(r.value), _bits(r.se), r.n_paths, r.n_steps,
                    _bits(r.exited_fraction)))
    if e.r_check is not None:
        c = e.r_check
        out.append((_bits(c.radius), _bits(c.estimate), _bits(c.se), c.consistent))
    return out


def _planar_model():
    """d = 2 states under a two-dimensional jump-diffusion: the phase is a matmul."""
    law = AtomLaw.of([((0.5, -0.2), 0.5), ((-1.5, 0.3), 0.5)])
    driver = LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]], FiniteActivity(20.0, law))
    phi = CoefficientField(
        batch_fn=lambda xs: np.stack([
            np.stack([1.0 + 0.5 * np.sin(xs[:, 1]), np.full(len(xs), 0.2)], axis=1),
            np.stack([np.full(len(xs), 0.1), 0.8 + 0.3 * np.cos(xs[:, 0])], axis=1)], axis=1),
        d=2, n=2, bound=2.0, lipschitz=1.0)
    return sk.SdeModel(coefficient=phi, driver=driver)


TEMPERED = {"coefficient": {"name": "bump", "params": {"a": 0.5, "b": 1.0}},
            "driver": {"name": "tempered"}}

CASES = {
    **{name: (lambda name=name: catalog.resolve_model({"name": name}),
              [-1.0, 0.5], README_XI, {})
       for name in ("bm_bump", "cp_tanh", "stable_sin", "bm_bump_drift")},
    "tempered": (lambda: catalog.resolve_model(TEMPERED), [0.0], README_XI, {}),
    "zero_coefficient": (lambda: sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver()),
                         [0.0, 2.0], PAIRED_XI, {}),
    "planar": (_planar_model, [[0.0, 0.5]],
               [[1.0, -2.0], [-1.0, 2.0], [0.0, 0.0], [-0.0, 0.0], [3.0, 0.5]], {}),
    "paired_grid": (catalog.bm_bump, [0.0, 1.0], PAIRED_XI, {}),
    "uneven_chunks": (catalog.cp_tanh, [0.0], [-3.0, 0.5, 3.0], {"paths_per_rung": 20_000}),
    "no_radius_check": (catalog.stable_sin, [-1.0, 1.0], README_XI, {"check_radius": False}),
}


def _outcome(table, model, xs, xis, **kwargs):
    """The estimates' fields, or the type and message of the error raised."""
    try:
        return [_fields(e) for e in table(model, xs, xis, **kwargs)]
    except Exception as exc:        # the error the serial table raises is part of its output
        return type(exc), str(exc)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_serial_oracle(case, threads):
    make, xs, xis, extra = CASES[case]
    model = make()
    kwargs = {"seed": 11, "paths_per_rung": 2000, **extra}
    want = _outcome(ref.symbol_mc_table, model, xs, xis, **kwargs)
    assert isinstance(want, list)
    assert _outcome(sk.symbol_mc_table, model, xs, xis, threads=threads, **kwargs) == want


@pytest.mark.parametrize("threads", [1, 2])
def test_zero_coefficient_values_keep_their_signed_zeros(threads, monkeypatch):
    # no path moves, so every phase is +-0.  The rung means drop the sign of a
    # zero, so the workers' values themselves are compared: with a plain
    # conjugate the rows of -xi would read +0.0 where the direct values read -0.0
    values, seen = symbols._values_for_pm_xi, []

    def spy(terminal, x, xi, t, minus, moved=None):
        out = values(terminal, x, xi, t, minus, moved)
        seen.append((terminal, x, xi, t, minus, out.copy()))
        return out

    monkeypatch.setattr(symbols, "_values_for_pm_xi", spy)
    model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver())
    sk.symbol_mc_table(model, [0.0, 1.5], [1.0, -1.0, 0.0, -0.0], seed=1,
                       paths_per_rung=1000, threads=threads)
    assert len(seen) == 2 * 16 and all(s[4] for s in seen)
    for terminal, x, xi, t, _, got in seen:
        for row, sign in zip(got, (1.0, -1.0)):
            want = ref.values_for_xi(terminal, x, sign * xi, t)
            assert row.view(np.int64).tolist() == want.view(np.int64).tolist()
            assert np.signbit(row.real).all()


def test_estimate_symbol_mc_is_the_one_point_table():
    model = catalog.cp_tanh()
    kwargs = dict(seed=4, paths_per_rung=1500)
    got = sk.estimate_symbol_mc(model, 0.5, -1.5, **kwargs)
    assert _fields(got) == _fields(ref.symbol_mc_table(model, [0.5], [-1.5], **kwargs)[0])


def test_many_workers_and_short_thread_switches_match_the_oracle():
    # more workers than cores, a thread switch every microsecond, and a fresh
    # tempered model whose sampler table is built at the first draw, in
    # whichever worker draws first
    kwargs = dict(seed=6, paths_per_rung=1000)
    want = _outcome(ref.symbol_mc_table, catalog.resolve_model(TEMPERED), [0.0, 1.0],
                    README_XI, **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _outcome(sk.symbol_mc_table, catalog.resolve_model(TEMPERED), [0.0, 1.0],
                       README_XI, threads=8, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert isinstance(want, list) and got == want


# --------------------------------------------------------------------------
# the values table


def _terminals(x, d, n=CHUNK_ROWS + 37):
    rng = np.random.default_rng(5)
    moved = x + rng.normal(size=(n, d)) * 0.7
    moved[::7] = x                                  # phase +-0
    moved[1::11, 0] = x[0] + 5e-324
    return moved


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t", [0.04, 0.005])
def test_values_at_xi_and_minus_xi_are_the_direct_values(d, t):
    x = np.array([0.25, -1.0][:d])
    terminal = _terminals(x, d)
    for v in (3.0, -0.5, 0.0, -0.0, 1e-8, 1e3, 5e-324):
        xi = np.full(d, v)
        xi[0] = 0.5 if d == 2 and v == 3.0 else xi[0]
        got = symbols._values_for_pm_xi(terminal, x, xi, t, True)
        assert got.shape == (2, terminal.shape[0])
        for row, want in zip(got, (ref.values_for_xi(terminal, x, xi, t),
                                   ref.values_for_xi(terminal, x, -xi, t))):
            assert row.view(np.int64).tolist() == want.view(np.int64).tolist()
        alone = symbols._values_for_pm_xi(terminal, x, xi, t, False)
        assert alone.shape == (1, terminal.shape[0])
        assert alone[0].view(np.int64).tolist() == got[0].view(np.int64).tolist()


def test_mirror_groups_take_each_minus_xi_once():
    xis = [np.array([v]) for v in (1.0, -1.0, -1.0, 1.0, 2.0, 0.0, -0.0, 0.0)]
    assert symbols._mirror_groups(xis) == [(0, [1, 2]), (3, []), (4, []), (5, [6, 7])]
    planar = [np.array(v) for v in ([1.0, -2.0], [-1.0, -2.0], [-1.0, 2.0])]
    assert symbols._mirror_groups(planar) == [(0, [2]), (1, [])]


# --------------------------------------------------------------------------
# e^{-i theta} = conj e^{i theta}, except at theta = +-0


def _conj_is_mirror(theta):
    theta = np.asarray(theta, dtype=float)
    got, want = np.conj(expi(theta)), expi(-theta)
    return got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_expi_mirror_on_a_grid_from_subnormals_to_1e8():
    theta = np.concatenate([2.0 ** np.arange(-1074, 27), np.geomspace(5e-324, 1e8, 20001),
                            np.nextafter(np.pi * np.arange(1, 2000), np.inf)])
    theta = np.concatenate([theta, -theta])
    assert _conj_is_mirror(theta)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0))
@example(np.pi / 2)
@example(1e8)
def test_expi_mirror_on_any_nonzero_phase(theta):
    assert _conj_is_mirror([theta])


def test_expi_mirror_fails_only_in_the_sign_of_a_zero_sine():
    for zero in (0.0, -0.0):
        direct, mirrored = expi(np.array([-zero]))[0], np.conj(expi(np.array([zero])))[0]
        assert direct == mirrored
        assert not np.signbit(direct.imag) and np.signbit(mirrored.imag)
        assert not np.signbit((mirrored.imag + 0.0))


# --------------------------------------------------------------------------
# the pool: order, window, errors and clean-up


def test_ordered_map_keeps_task_order_and_window():
    pulled, handed = [0], [0]
    high = [0]
    lock = threading.Lock()

    def tasks():
        for k in range(40):
            with lock:
                pulled[0] += 1
                high[0] = max(high[0], pulled[0] - handed[0])
            yield k

    def work(k):
        time.sleep(0.002 * (k % 3))
        return k * k

    before = threading.active_count()
    out = []
    with closing(ordered_map(work, tasks(), 2)) as results:
        for v in results:
            out.append(v)
            with lock:
                handed[0] += 1
    assert out == [k * k for k in range(40)]
    assert high[0] <= 2 * 2 + 1         # the window, plus the result being handed out
    assert threading.active_count() == before


def test_ordered_map_runs_inline_at_one_thread():
    me = threading.get_ident()
    assert list(ordered_map(lambda k: (k, threading.get_ident()), range(3), 1)) == \
        [(0, me), (1, me), (2, me)]


def test_ordered_map_raises_the_first_error_in_task_order_and_joins():
    def work(k):
        if k == 5:
            time.sleep(0.05)
            raise ValueError("five")
        if k == 6:
            raise KeyError("six")
        return k

    before = threading.active_count()
    seen = []
    with pytest.raises(ValueError, match="five"):
        with closing(ordered_map(work, range(20), 2)) as results:
            seen.extend(results)
    assert seen == list(range(5))
    assert threading.active_count() == before


def test_ordered_map_stopped_early_joins_its_workers():
    before = threading.active_count()
    with closing(ordered_map(lambda k: k, range(100), 2)) as results:
        assert next(results) == 0
    assert threading.active_count() == before


def _wrapped_ensembles(monkeypatch, x_fail, x_guard, where=symbols):
    """``simulate_ensemble`` that raises SimulationOverflow on every ensemble
    started at ``x_fail``, and at ``x_guard`` triples the displacements of the
    t = 0.01 rung, so that the consistency guard there raises NonConvergence."""
    run = simulate_ensemble

    def wrapped(blocks, drift, x0, horizon, *args, **kwargs):
        if x0[0] == x_fail:
            raise SimulationOverflow(f"ensemble at x = {x_fail}")
        res = run(blocks, drift, x0, horizon, *args, **kwargs)
        if x0[0] == x_guard and horizon == 0.01:
            res.terminal = x0 + 3.0 * (res.terminal - x0)
        return res

    monkeypatch.setattr(where, "simulate_ensemble", wrapped)


@pytest.mark.parametrize("threads", [1, 2])
def test_first_error_in_serial_order_wins(threads, monkeypatch):
    model = catalog.bm_bump()
    kwargs = dict(seed=2, paths_per_rung=2000, threads=threads)
    _wrapped_ensembles(monkeypatch, x_fail=1.0, x_guard=0.0)
    before = threading.active_count()
    # the guard at x0 comes before x1's ensembles in a serial run
    with pytest.raises(NonConvergence):
        sk.symbol_mc_table(model, [0.0, 1.0], [1.0, 2.0], **kwargs)
    assert threading.active_count() == before
    # with x1 first, its overflow comes first
    with pytest.raises(SimulationOverflow, match="x = 1.0"):
        sk.symbol_mc_table(model, [1.0, 0.0], [1.0, 2.0], **kwargs)
    assert threading.active_count() == before
    # a later x's overflow does not hide behind a guard that passes
    with pytest.raises(SimulationOverflow):
        sk.symbol_mc_table(model, [0.5, 1.0], [1.0], **kwargs)
    assert threading.active_count() == before


def test_guard_failure_matches_the_oracle(monkeypatch):
    for where in (symbols, ref):
        _wrapped_ensembles(monkeypatch, x_fail=np.nan, x_guard=0.0, where=where)
    model = catalog.bm_bump()
    kwargs = dict(seed=2, paths_per_rung=2000)
    want = _outcome(ref.symbol_mc_table, model, [0.0], [1.0, 2.0], **kwargs)
    assert want[0] is NonConvergence
    for threads in (1, 2):
        assert _outcome(sk.symbol_mc_table, model, [0.0], [1.0, 2.0],
                        threads=threads, **kwargs) == want


def test_ensemble_overflow_on_two_threads_joins_its_workers(monkeypatch):
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 1000)
    driver = LevyTriplet([1e13], [[0.0]], FiniteActivity(1.0, AtomLaw.of([(1.0, 1.0)])))
    model = sk.SdeModel(coefficient=co.constant(1.0), driver=driver)
    before = threading.active_count()
    with pytest.raises(SimulationOverflow):
        simulate_ensemble(model.blocks(), None, [0.0], 1.0, 4, 5000, 1, threads=2)
    assert threading.active_count() == before
