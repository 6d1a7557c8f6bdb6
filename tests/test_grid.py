"""Grid calls of the functionals, the kappa solvers and the risk equivalents.

Each of them takes a 1-D grid and solves its points together.  A grid call
must give, point for point, the same bits as the scalar calls, and those
must be the bits of the one-point scalar loops the grid solvers replaced
(restated here as references).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.selfconsistent import kappa_at_dof, kappa_of_lambda
from ddlab.spectrum import (
    SignalMeasure, Spectrum, df1, df2, make_inverse_index, make_power_law, signal_functional,
)
from ddlab.theory import ridge_risk, rp_risk

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def measures(draw):
    """Up to six atoms, some of them possibly at zero, integer weights."""
    n_atoms = draw(st.integers(1, 6))
    eigs = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 5.0)), min_size=n_atoms, max_size=n_atoms))
    weights = draw(st.lists(st.integers(1, 12), min_size=n_atoms, max_size=n_atoms))
    masses = draw(st.lists(st.floats(0.0, 1.0), min_size=n_atoms, max_size=n_atoms))
    s = Spectrum(eigenvalues=np.array(eigs), weights=np.array(weights, dtype=float), d=sum(weights))
    return s, SignalMeasure(masses=np.array(masses))


def _ref_df1(s, k):
    e, w = s.eigenvalues, s.weights
    pos = e > 0
    if k == 0:
        return float(w[pos].sum())
    return float(np.sum(w[pos] * e[pos] / (e[pos] + k)))


def _ref_kappa_at_dof(s, target):
    """(kappa, bisection steps) of the one-point solve."""
    lo, hi = 0.0, s.trace / target
    bracket_hi = hi
    for steps in range(1, 201):
        mid = 0.5 * (lo + hi)
        if _ref_df1(s, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1e-300):
            break
    kappa = 0.5 * (lo + hi)
    e, w = s.eigenvalues, s.weights
    for _ in range(3):
        f = _ref_df1(s, kappa) - target
        fp = -float((w * e / (e + kappa) ** 2).sum())
        if fp == 0.0:
            break
        cand = kappa - f / fp
        if not 0.0 < cand < bracket_hi or cand == kappa:
            break
        kappa = cand
    return kappa, steps


def _ref_kappa_of_lambda(s, n, lam):
    """(kappa, nudge and bisection steps) of the one-point solve at lam > 0."""
    def defect(k):
        return k * (1.0 - _ref_df1(s, k) / n) - lam

    lo, hi, it = lam, lam + s.trace / n, 0
    while defect(hi) < 0.0 and it < 64:
        hi *= 1.0 + 1e-12
        it += 1
    for steps in range(1, 201):
        mid = 0.5 * (lo + hi)
        if defect(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi), it + steps


def _same(grid, points):
    assert np.array_equal(np.asarray(grid), np.asarray(points))


@SETTINGS
@given(measures(), st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 50.0)), max_size=8))
def test_functionals_grid_equals_scalar(pair, kappas):
    s, v = pair
    _same(df1(s, kappas), [df1(s, k) for k in kappas])
    _same(df1(s, kappas), [_ref_df1(s, k) for k in kappas])
    _same(df2(s, kappas), [df2(s, k) for k in kappas])
    for power in (1, 2):
        _same(signal_functional(s, v, kappas, power),
              [signal_functional(s, v, k, power) for k in kappas])
    assert all(type(df1(s, k)) is float for k in kappas)


@SETTINGS
@given(measures(), st.integers(1, 60),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), max_size=6))
def test_kappa_of_lambda_grid_equals_scalar(pair, n, lams):
    s, _ = pair
    grid = kappa_of_lambda(s, n, lams)
    points = [kappa_of_lambda(s, n, lam) for lam in lams]
    _same(grid.kappa, [p.kappa for p in points])
    _same(grid.residual, [p.residual for p in points])
    _same(grid.diverged, [p.diverged for p in points])
    assert type(grid.iterations) is int
    assert grid.iterations == sum(p.iterations for p in points)
    for lam, p in zip(lams, points):
        if lam > 0:
            assert (p.kappa, p.iterations) == _ref_kappa_of_lambda(s, n, lam)


def _check_against_references(s, n, lams, targets):
    """Both solvers on whole grids give the reference bits and step counts."""
    sol = kappa_of_lambda(s, n, lams)
    ref = [_ref_kappa_of_lambda(s, n, lam) for lam in lams]
    _same(sol.kappa, [k for k, _ in ref])
    assert sol.iterations == sum(steps for _, steps in ref)
    sol = kappa_at_dof(s, targets)
    ref = [_ref_kappa_at_dof(s, t) for t in targets]
    _same(sol.kappa, [k for k, _ in ref])
    assert sol.iterations == sum(steps for _, steps in ref)


def test_solvers_at_benchmark_scale_equal_references():
    # The theory_grid benchmark's sweeps: the 199 m points below n and the
    # 400 lambda points, on the 1/k spectrum at d = 4000, n = 2000.
    s = make_inverse_index(4000)
    _check_against_references(
        s, 2000, np.geomspace(1e-6, 1.0, 400), np.arange(10.0, 2000.0, 10.0))


@pytest.mark.parametrize("s", [
    make_power_law(2000, 3.0),
    Spectrum(eigenvalues=np.r_[1.0 / np.arange(1, 1501), 0.0],
             weights=np.r_[np.ones(1500), 500.0], d=2000),
], ids=["power_law_3", "zero_atoms"])
def test_solvers_over_wide_ranges_equal_references(s):
    lams = np.geomspace(1e-10, 1e2, 41)
    targets = np.linspace(0.001, 0.999, 41) * s.rank
    for n in (500, int(s.rank), 3000):
        _check_against_references(s, n, lams, targets)


@SETTINGS
@given(measures(), st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))
def test_kappa_at_dof_grid_equals_scalar(pair, fractions):
    s, _ = pair
    if s.rank == 0:
        return
    targets = [f * s.rank for f in fractions]
    grid = kappa_at_dof(s, targets)
    points = [kappa_at_dof(s, t) for t in targets]
    _same(grid.kappa, [p.kappa for p in points])
    ref = [_ref_kappa_at_dof(s, t) for t in targets]
    _same(grid.kappa, [k for k, _ in ref])
    _same(grid.residual, [p.residual for p in points])
    assert type(grid.iterations) is int
    assert grid.iterations == sum(p.iterations for p in points)
    assert grid.iterations == sum(steps for _, steps in ref)


def _rows(breakdowns):
    return [dataclasses.astuple(b) for b in breakdowns]


@SETTINGS
@given(measures(), st.integers(1, 60),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), max_size=6))
def test_ridge_risk_grid_equals_scalar(pair, n, lams):
    s, v = pair
    assert _rows(ridge_risk(s, v, n, 0.7, lams)) == _rows(ridge_risk(s, v, n, 0.7, lam) for lam in lams)


@SETTINGS
@given(measures(), st.integers(1, 60), st.lists(st.integers(1, 150), max_size=10))
def test_rp_risk_grid_equals_scalar(pair, n, ms):
    s, v = pair
    ms = ms + [n]
    assert _rows(rp_risk(s, v, n, ms, 1.3)) == _rows(rp_risk(s, v, n, m, 1.3) for m in ms)


# d < n, d = n and d > n, on a grid through m = n and past m = d.
@pytest.mark.parametrize("n, d", [(30, 12), (24, 24), (20, 45)])
def test_risk_grids_at_each_shape(n, d):
    s = make_inverse_index(d)
    v = SignalMeasure(masses=np.linspace(0.1, 1.0, d))
    ms = [1, n // 2, n - 1, n, n + 1, d, d + 1, 2 * d + n, 10**9 * n]
    assert _rows(rp_risk(s, v, n, ms, 1.0)) == _rows(rp_risk(s, v, n, m, 1.0) for m in ms)
    lams = [0.0, 1e-9, 1e-3, 0.0, 1.0]
    assert _rows(ridge_risk(s, v, n, 1.0, lams)) == _rows(ridge_risk(s, v, n, 1.0, x) for x in lams)
    # m = n diverges unless d < n, where S spans the space and the risk is OLS's.
    assert rp_risk(s, v, n, ms, 1.0)[ms.index(n)].diverged == (d >= n)
    assert ridge_risk(s, v, n, 1.0, lams)[0].diverged == (d == n)


def test_rp_risk_solves_kappa_n_once(monkeypatch):
    import ddlab.theory as theory

    calls = []
    solve = theory.kappa_at_dof
    monkeypatch.setattr(theory, "kappa_at_dof", lambda s, t: calls.append(t) or solve(s, t))
    s = make_inverse_index(60)
    v = SignalMeasure(masses=np.ones(60) / 60)
    out = rp_risk(s, v, 20, [5, 10, 25, 30, 40, 59], 1.0)
    assert len(calls) == 2 and calls[1] == 20.0
    assert len({b.kappa for b in out[2:]}) == 1


def test_empty_grids():
    s = make_inverse_index(10)
    v = SignalMeasure(masses=np.ones(10))
    assert df1(s, []).shape == (0,)
    assert kappa_of_lambda(s, 5, []).iterations == 0
    assert ridge_risk(s, v, 5, 1.0, []) == []
    assert rp_risk(s, v, 5, [], 1.0) == []


BAD_GRIDS = [float("nan"), [0.5, float("nan")], -1.0, [0.5, -1e-9], [[0.5, 1.0]]]


@pytest.mark.parametrize("bad", BAD_GRIDS, ids=["nan", "nan-in-grid", "negative", "negative-in-grid", "2d"])
def test_bad_grids_raise(bad):
    s = make_inverse_index(10)
    v = SignalMeasure(masses=np.ones(10))
    for call in (
        lambda: df1(s, bad),
        lambda: df2(s, bad),
        lambda: signal_functional(s, v, bad, 1),
        lambda: kappa_of_lambda(s, 5, bad),
        lambda: kappa_at_dof(s, bad),
        lambda: ridge_risk(s, v, 5, 1.0, bad),
        lambda: rp_risk(s, v, 5, bad, 1.0),
    ):
        with pytest.raises(ValueError):
            call()
