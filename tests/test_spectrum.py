from fractions import Fraction

import numpy as np
import pytest

from ddlab.spectrum import (
    SignalMeasure,
    Spectrum,
    df1,
    df2,
    make_inverse_index,
    make_isotropic,
    make_power_law,
    make_two_dirac,
    signal_functional,
    spectrum_from_json,
    spectrum_to_json,
)

TWO_DIRAC = make_two_dirac(10, 0.5, 1.0, 4.0)


class TestConstruction:
    def test_weights_must_sum_to_d(self):
        with pytest.raises(ValueError, match="weights sum"):
            Spectrum(eigenvalues=np.array([1.0]), weights=np.array([3.0]), d=4)

    def test_rejects_negative_eigenvalue_and_weight(self):
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=np.array([-1.0]), weights=np.array([1.0]), d=1)
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=np.array([1.0, 1.0]), weights=np.array([2.0, 0.0]), d=2)

    def test_from_eigenvalues_clips_roundoff(self):
        s = Spectrum.from_eigenvalues(np.array([2.0, 1e-16, -1e-16]))
        assert s.d == 3
        assert (s.eigenvalues >= 0).all()
        assert s.rank == 1  # only the strictly positive atom counts

    def test_immutability(self):
        with pytest.raises(ValueError):
            TWO_DIRAC.eigenvalues[0] = 9.0


class TestDegreesOfFreedom:
    def test_isotropic_trivial_values(self):
        s = make_isotropic(10, 1.0)
        assert df1(s, 0.0) == pytest.approx(10.0)
        assert df1(s, 1.0) == pytest.approx(5.0)
        assert df2(s, 0.0) == pytest.approx(10.0)
        assert df2(s, 1.0) == pytest.approx(2.5)

    def test_two_dirac_hand_sums(self):
        # weight 5 at 1 and weight 5 at 4, kappa = 2.
        assert df1(TWO_DIRAC, 2.0) == pytest.approx(5 * (1 / 3) + 5 * (4 / 6))
        assert df2(TWO_DIRAC, 2.0) == pytest.approx(5 * (1 / 3) ** 2 + 5 * (4 / 6) ** 2)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            df1(TWO_DIRAC, -0.1)
        with pytest.raises(ValueError):
            df2(TWO_DIRAC, -1e-12)

    def test_monotone_decreasing_with_limits(self):
        rng = np.random.default_rng(5)
        s = Spectrum.from_eigenvalues(rng.uniform(0.1, 3.0, size=20))
        kappas = np.geomspace(1e-6, 1e6, 40)
        d1 = [df1(s, k) for k in kappas]
        d2 = [df2(s, k) for k in kappas]
        assert all(a > b for a, b in zip(d1, d1[1:]))
        assert all(a > b for a, b in zip(d2, d2[1:]))
        assert d1[0] == pytest.approx(20, rel=1e-4)
        assert d1[-1] == pytest.approx(0.0, abs=1e-4)
        assert all(x >= y - 1e-12 for x, y in zip(d1, d2))

    def test_df_difference_identity(self):
        # kappa * tr[Sigma (Sigma+kappa)^-2] = df1 - df2, term by term.
        rng = np.random.default_rng(8)
        s = Spectrum.from_eigenvalues(rng.uniform(0.05, 5.0, size=15))
        for kappa in (1e-3, 0.3, 2.0, 50.0):
            lhs = kappa * np.sum(
                s.weights * s.eigenvalues / (s.eigenvalues + kappa) ** 2
            )
            rhs = df1(s, kappa) - df2(s, kappa)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_power_law_df2_scaling(self):
        # Slope of log df2 vs log kappa in the bulk window is -1/alpha.
        d = 10000
        for alpha in (1.5, 2.0, 3.0):
            s = make_power_law(d, alpha, 1.0)
            kappas = np.geomspace(50.0, (d / 20.0) ** alpha / 50.0, 12)
            values = [df2(s, k) for k in kappas]
            slope = np.polyfit(np.log(kappas), np.log(values), 1)[0]
            assert slope == pytest.approx(-1.0 / alpha, abs=0.05)


class TestSignalFunctional:
    def test_kappa_zero_power_one_is_total_mass(self):
        v = SignalMeasure(masses=np.array([0.3, 0.7]))
        assert signal_functional(TWO_DIRAC, v, 0.0, 1) == pytest.approx(1.0)

    def test_single_atom_hand_value(self):
        s = Spectrum(eigenvalues=np.array([2.0]), weights=np.array([1.0]), d=1)
        v = SignalMeasure(masses=np.array([3.0]))
        assert signal_functional(s, v, 2.0, 2) == pytest.approx(3 * 2 / 16)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(17)
        eigs = rng.uniform(0.1, 4.0, size=20)
        s = Spectrum.from_eigenvalues(eigs)
        basis = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        theta = rng.standard_normal(20)
        sigma = basis @ np.diag(eigs) @ basis.T
        v = SignalMeasure(masses=(basis.T @ theta) ** 2)
        for kappa, power in [(0.5, 1), (0.5, 2), (3.0, 1), (3.0, 2)]:
            resolvent = np.linalg.inv(sigma + kappa * np.eye(20))
            dense = theta @ (sigma @ np.linalg.matrix_power(resolvent, power)) @ theta
            assert signal_functional(s, v, kappa, power) == pytest.approx(dense, rel=1e-10)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError, match="atoms"):
            signal_functional(TWO_DIRAC, SignalMeasure(masses=np.ones(3)), 1.0, 1)


class TestBuilders:
    def test_inverse_index_harmonic_normalization(self):
        s = make_inverse_index(4)
        h4 = Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
        expected = [float(Fraction(1, k) / h4) for k in (1, 2, 3, 4)]
        assert np.allclose(s.eigenvalues, expected, rtol=1e-14)
        assert s.trace == pytest.approx(1.0, rel=1e-12)

    def test_isotropic_trace(self):
        assert make_isotropic(10, 0.1).trace == pytest.approx(1.0)

    def test_two_dirac_df1_example(self):
        s = make_two_dirac(100, 0.5, 1.0, 4.0)
        assert df1(s, 2.0) == pytest.approx(50.0)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            make_power_law(10, 1.0)
        with pytest.raises(ValueError):
            make_isotropic(10, 0.0)
        with pytest.raises(ValueError):
            make_two_dirac(10, 1.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            make_two_dirac(10, 0.5, -1.0, 2.0)


class TestJson:
    def test_round_trip_with_signal(self):
        v = SignalMeasure(masses=np.array([0.25, 0.5]))
        text = spectrum_to_json(TWO_DIRAC, v)
        s2, v2 = spectrum_from_json(text)
        assert s2.d == TWO_DIRAC.d
        assert np.allclose(s2.eigenvalues, TWO_DIRAC.eigenvalues)
        assert np.allclose(s2.weights, TWO_DIRAC.weights)
        assert np.allclose(v2.masses, v.masses)

    def test_round_trip_without_signal(self):
        s2, v2 = spectrum_from_json(spectrum_to_json(make_inverse_index(6)))
        assert v2 is None
        assert s2.d == 6

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            spectrum_from_json('{"d": 2}')
        with pytest.raises(ValueError):
            spectrum_from_json('{"d": 2, "atoms": [[1.0, 1.0], [1.0, 1.0]], "signal": [1.0]}')
