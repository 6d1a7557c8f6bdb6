"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest -s to watch them live).
The replication-heavy criteria share module-scoped sweeps of the figure
presets; harness parallelism stays at its single-threaded default.
"""

import math
import time

import numpy as np
import pytest

import test_properties
from ddlab.cli import preset_config, run_fig2, sweep_rows
from ddlab.empirical import (
    build_instance,
    child_seed,
    conditional_risk_ridge,
    probe_trace_equivalents,
    sample_matrix,
)
from ddlab.config import SweepConfig
from ddlab.selfconsistent import (
    kappa_at_dof,
    kappa_isotropic_closed,
    kappa_of_lambda,
    kappa_two_dirac_closed,
)
from ddlab.spectrum import SignalMeasure, make_isotropic, make_two_dirac
from ddlab.theory import minnorm_risk, rp_risk
from test_empirical import small_instance


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f" ({len(failures)} issues)" if failures else ""))
    assert not failures, failures[:8]


@pytest.fixture(scope="module")
def fig4_run():
    config = preset_config("fig4")
    start = time.monotonic()
    rows, inst, _ = sweep_rows(config)
    return config, inst, rows, time.monotonic() - start


@pytest.fixture(scope="module")
def fig5_run():
    config = preset_config("fig5")
    rows, inst, _ = sweep_rows(config)
    return config, inst, rows


def _band_failures(rows, n, exclusion=None):
    """Points where the replication mean leaves the theory band.

    Band: max(5% of theory, 1.5 replication standard deviations), at every
    non-divergent grid point at least n/10 away from the interpolation
    threshold.
    """
    exclusion = n / 10 if exclusion is None else exclusion
    failures = []
    for row in rows:
        if abs(row.m_or_lambda - n) < exclusion or row.diverged_flag:
            continue
        for which, mean, std, theory in (
            ("bias", row.bias_emp_mean, row.bias_emp_std, row.bias_theory),
            ("variance", row.var_emp_mean, row.var_emp_std, row.var_theory),
        ):
            tol = max(0.05 * abs(theory), 1.5 * std)
            if not abs(mean - theory) <= tol:
                failures.append(
                    (which, row.m_or_lambda, mean, theory, tol)
                )
    return failures


def test_criterion_1_kappa_closed_forms():
    start = time.monotonic()
    failures = []
    lams = np.geomspace(1e-3, 10.0, 7)
    for gamma in (0.5, 1.0, 2.0):
        d = int(1000 * gamma)
        s = make_isotropic(d, 1.0)
        for lam in lams:  # 21 (gamma, lambda) points
            solver = kappa_of_lambda(s, 1000, float(lam)).kappa
            closed = kappa_isotropic_closed(1.0, gamma, float(lam))
            if abs(solver - closed) > 1e-9 * closed:
                failures.append(("isotropic", gamma, lam, solver, closed))
    s2 = make_two_dirac(1000, 0.5, 1.0, 4.0)
    for delta in np.linspace(0.05, 1.0, 20):
        closed = kappa_two_dirac_closed(0.5, 0.5, 1.0, 4.0, 2.0, float(delta))
        solver = kappa_at_dof(s2, float(delta) * 500).kappa
        if abs(closed - solver) > 1e-8 * solver:
            failures.append(("two_dirac", delta, closed, solver))
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(1, f"closed-form kappa agreement ({elapsed:.2f}s)", failures)


def test_criterion_2_point_values():
    failures = []
    k0 = kappa_of_lambda(make_isotropic(1000, 1.0), 500, 0.0).kappa
    if abs(k0 - 1.0) > 1e-10:
        failures.append(("kappa0", k0))
    s = make_two_dirac(800, 0.5, 1.0, 4.0)
    v = SignalMeasure(masses=s.weights / s.d)
    rp_var = rp_risk(s, v, 400, 200, 1.0).variance
    if rp_var != 1.0:
        failures.append(("rp_half_n", rp_var))
    iso = make_isotropic(500, 1.0)
    ols_var = minnorm_risk(iso, SignalMeasure(masses=iso.weights / 500), 1000, 1.0).variance
    if ols_var != 1.0:
        failures.append(("ols_gamma_half", ols_var))
    _report(2, "pinned point values (kappa0 = 1, rp and ols variance = 1)", failures)


def test_criterion_3_gaussian_ols_identity():
    start = time.monotonic()
    n, d = 60, 20
    inst = small_instance(d=d, sigma_noise=1.0, seed=2024)
    values = np.empty(2000)
    for rep in range(2000):
        z = sample_matrix(n, d, "gaussian", child_seed(31337, rep))
        values[rep] = conditional_risk_ridge(inst, z, 0.0)[1]
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(len(values))
    target = d / (n - d - 1)
    elapsed = time.monotonic() - start
    failures = []
    if abs(mean - target) > 3 * se:
        failures.append((mean, target, se))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(
        3,
        f"Gaussian OLS variance {mean:.5f} vs {target:.5f} within 3 SE ({elapsed:.1f}s)",
        failures,
    )


def test_criterion_4_trace_equivalent_probes():
    start = time.monotonic()
    configs = [
        SweepConfig(n=1500, d=1500, spectrum_kind="isotropic", spectrum_params=[1.0],
                    mode="probe", master_seed=41),
        SweepConfig(n=1000, d=2000, spectrum_kind="two_dirac",
                    spectrum_params=[0.5, 1.0, 4.0], mode="probe", master_seed=42),
    ]
    failures = []
    for config in configs:
        inst = build_instance(config)
        # In Sigma's eigenbasis A = Sigma and B = I are the diagonals e and 1.
        q, root, ones = inst.sigma_basis, np.sqrt(inst.sigma_eigs), np.ones(config.d)
        gaps: dict[tuple[float, str], list[float]] = {}
        lams = (0.1, 1.0)
        for seed_ix in range(10):
            z = sample_matrix(
                config.n, config.d, "rademacher", child_seed(config.master_seed, seed_ix)
            )
            x = (z @ q) * root
            probe_rows = probe_trace_equivalents(inst, x, inst.sigma_eigs, ones, lams)
            for lam, probes in zip(lams, probe_rows):
                for probe in probes:
                    gaps.setdefault((lam, probe.name), []).append(probe.rel_gap)
                    if probe.rel_gap > 0.05:
                        failures.append((config.d, lam, probe.name, probe.rel_gap))
        for (lam, name), values in gaps.items():
            med = float(np.median(values))
            if med > 0.02:
                failures.append(("median", config.d, lam, name, med))
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    _report(4, f"trace equivalents within 5% (median 2%) over 10 seeds ({elapsed:.0f}s)", failures)


def test_criterion_5_fig4_reproduction(fig4_run):
    config, inst, rows, elapsed = fig4_run
    failures = _band_failures(rows, config.n)
    var_curve = [(r.var_emp_mean, r.m_or_lambda) for r in rows if r.var_emp_mean is not None]
    peak_m = max(var_curve)[1]
    nearest = min(rows, key=lambda r: abs(r.m_or_lambda - config.n)).m_or_lambda
    if peak_m != nearest:
        failures.append(("variance_peak", peak_m, nearest))
    if elapsed >= 600.0:
        failures.append(("runtime", elapsed))
    _report(
        5,
        f"fig4 replication means inside theory band, variance peak at m={peak_m:.0f}",
        failures,
    )


def test_criterion_6_fig5_reproduction_and_shapes(fig5_run, fig4_run):
    config5, inst5, rows5 = fig5_run
    failures = _band_failures(rows5, config5.n)
    fine_grid = list(range(5, config5.n, 5))

    spec5, signal5 = inst5.spectrum(), inst5.signal()
    bias5 = [br.bias for br in rp_risk(spec5, signal5, config5.n, fine_grid, config5.sigma_noise)]
    if not all(a < b for a, b in zip(bias5, bias5[1:])):
        failures.append(("fig5_bias_not_monotone",))

    config4, inst4, _, _ = fig4_run
    spec4, signal4 = inst4.spectrum(), inst4.signal()
    bias4 = [br.bias for br in rp_risk(spec4, signal4, config4.n, fine_grid, config4.sigma_noise)]
    k = int(np.argmin(bias4))
    interior = 0 < k < len(bias4) - 1 and bias4[0] > bias4[k] < bias4[-1]
    if not interior:
        failures.append(("fig4_bias_no_interior_minimum", k))
    _report(
        6,
        "fig5 band agreement; isotropic bias monotone, 1/k bias dips inside (0, n)",
        failures,
    )


def test_criterion_7_fig1_double_descent():
    config = preset_config("fig1")
    rows, inst, _ = sweep_rows(config)
    n = config.n
    failures = []

    finite_totals = {r.m_or_lambda: r.total_theory for r in rows if not r.diverged_flag}
    best_under = min(v for m, v in finite_totals.items() if m < n)
    tail = finite_totals[4.0 * n]
    if not tail < best_under:
        failures.append(("tail_not_below_underparam", tail, best_under))
    curve_min = min(finite_totals.values())
    near = [r.total_theory for r in rows if abs(r.m_or_lambda - n) <= n / 20]
    if not all(v >= 10 * curve_min for v in near):
        failures.append(("no_divergence_spike", near, curve_min))
    failures.extend(_band_failures(rows, n))
    _report(
        7,
        f"fig1 double descent: total({4 * n:.0f})={tail:.3f} < best under-param "
        f"{best_under:.3f}, spike at m=n, empirical tracks theory",
        failures,
    )


def test_criterion_8_fig2_convergence():
    _tables, summary = run_fig2()
    failures = []
    ns = sorted(summary)
    if ns != [10, 100, 1000]:
        failures.append(("n_values", ns))
    for key in ("mean_abs_gap_bias", "mean_abs_gap_variance"):
        gaps = [summary[n][key] for n in ns]
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            failures.append((key, gaps))
    pretty = {n: (round(summary[n]["mean_abs_gap_bias"], 4),
                  round(summary[n]["mean_abs_gap_variance"], 4)) for n in ns}
    _report(8, f"fig2 gaps strictly decrease in n: {pretty}", failures)


def test_criterion_9_property_suites():
    start = time.monotonic()
    failures = []
    for seed in test_properties.SEEDS:
        try:
            test_properties.test_kappa_and_df_invariants(seed)
            test_properties.test_cross_estimator_limits(seed)
            test_properties.test_conditional_risks_match_noise_sampling(seed)
            test_properties.test_surjective_projection_collapses_to_ols(seed)
        except AssertionError as exc:
            failures.append((seed, str(exc)[:120]))
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    _report(9, f"invariants on {len(list(test_properties.SEEDS))} random instances ({elapsed:.0f}s)", failures)
