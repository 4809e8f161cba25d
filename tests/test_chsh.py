"""CHSH operator, optimal settings, quantum values, and local-realist bound."""

import math
from itertools import product as iter_product

import numpy as np
import pytest

from oracles import (
    MAX_DENSE_PAIRS,
    MAX_PRODUCT_PAIRS,
    chsh_pair_operator,
    dense_expectation,
    dense_oracle,
    dense_quantum_value,
    product_lhv_max,
    singlet_product_state,
)
from bellcheck.chsh import (
    MAX_TABLEAU_PAIRS,
    ChshReport,
    MeasurementVectors,
    gap_report,
    lhv_max,
    lhv_pair_values,
    optimal_vectors,
    pair_expectation,
    planar_vectors,
    quantum_value,
)
from bellcheck.pauli import parse_pauli

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

Z_HAT = (0.0, 0.0, 1.0)
X_HAT = (1.0, 0.0, 0.0)
Y_HAT = (0.0, 1.0, 0.0)


def singlet_correlations() -> np.ndarray:
    """Per-axis-pair singlet expectations <sigma_i (x) sigma_j>, simulated."""
    singlet = singlet_product_state(1)
    table = np.empty((3, 3))
    for i, a in enumerate("XYZ"):
        for j, b in enumerate("XYZ"):
            table[i, j] = dense_expectation(singlet, dense_oracle(parse_pauli(f"{a}1 {b}2", 2)))
    return table


def oracle_expectation(v: MeasurementVectors) -> float:
    """Independent evaluation: E(a,b) = -a.b summed over the four settings."""

    def corr(x, y):
        return -float(np.dot(x, y))

    return (
        corr(v.a, v.b)
        + corr(v.a, v.b_prime)
        + corr(v.a_prime, v.b)
        - corr(v.a_prime, v.b_prime)
    )


class TestVectors:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementVectors((1.0, 1.0, 0.0), X_HAT, Z_HAT, X_HAT)

    def test_requires_three_components(self):
        with pytest.raises(ValueError):
            MeasurementVectors((1.0, 0.0), X_HAT, Z_HAT, X_HAT)

    def test_planar_helper(self):
        v = planar_vectors(0.0, 90.0, 180.0, 270.0)
        assert v.a == pytest.approx(Z_HAT)
        assert v.a_prime == pytest.approx(X_HAT)
        assert v.b == pytest.approx((0.0, 0.0, -1.0))
        assert v.b_prime == pytest.approx((-1.0, 0.0, 0.0))


class TestPairOperator:
    def test_hermitian(self):
        op = chsh_pair_operator(optimal_vectors())
        assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_degenerate_parallel_settings_give_twice_correlation(self):
        # a' = a and b' = b collapses the operator to 2 (sigma.a)(sigma.b).
        aligned = MeasurementVectors(Z_HAT, Z_HAT, Z_HAT, Z_HAT)
        assert pair_expectation(aligned) == pytest.approx(-2.0, abs=1e-12)
        orthogonal = MeasurementVectors(Z_HAT, Z_HAT, X_HAT, X_HAT)
        assert pair_expectation(orthogonal) == pytest.approx(0.0, abs=1e-12)

    def test_zz_xx_settings(self):
        # a = b = z and a' = b' = x: the four correlations are
        # -1, 0, 0, -1, and the CHSH combination cancels to zero.
        v = MeasurementVectors(Z_HAT, X_HAT, Z_HAT, X_HAT)
        assert oracle_expectation(v) == pytest.approx(0.0, abs=1e-12)
        assert pair_expectation(v) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_settings(self):
        rng = np.random.default_rng(13)
        singlet = singlet_product_state(1)
        for _ in range(50):
            vs = rng.standard_normal((4, 3))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            v = MeasurementVectors(*(tuple(row) for row in vs))
            assert pair_expectation(v) == pytest.approx(oracle_expectation(v), abs=1e-12)
            dense = dense_expectation(singlet, chsh_pair_operator(v))
            assert pair_expectation(v) == pytest.approx(dense, abs=1e-12)


class TestOptimalVectors:
    def test_reaches_two_sqrt_two(self):
        assert abs(pair_expectation(optimal_vectors()) - TWO_SQRT2) < 1e-9

    def test_grid_search_oracle_confirms_maximum(self):
        # For planar settings with theta_a = 0 the CHSH expectation splits
        # into independent theta_b and theta_b' terms for each theta_a',
        # so a full 1-degree scan is an exhaustive maximization oracle.
        degs = np.radians(np.arange(0.0, 360.0))
        best = 0.0
        for ta_prime in degs:
            term_b = np.max(-(np.cos(degs) + np.cos(ta_prime - degs)))
            term_bp = np.max(-(np.cos(degs) - np.cos(ta_prime - degs)))
            best = max(best, term_b + term_bp)
        assert abs(best - TWO_SQRT2) < 1e-3
        assert pair_expectation(optimal_vectors()) >= best - 1e-3

    def test_tsirelson_bound_empirically(self):
        # 1e5 random configurations; values are linear in the per-term
        # singlet correlations, which come from the simulator once.
        rng = np.random.default_rng(17)
        table = singlet_correlations()
        vs = rng.standard_normal((100_000, 4, 3))
        vs /= np.linalg.norm(vs, axis=2, keepdims=True)
        a, ap, b, bp = vs[:, 0], vs[:, 1], vs[:, 2], vs[:, 3]
        coeff = np.einsum("ki,kj->kij", a, b + bp) + np.einsum("ki,kj->kij", ap, b - bp)
        values = np.einsum("kij,ij->k", coeff, table)
        assert np.max(np.abs(values)) <= TWO_SQRT2 + 1e-9


class TestQuantumValue:
    def test_single_pair_optimal(self):
        assert abs(quantum_value(1, optimal_vectors()) - TWO_SQRT2) < 1e-9

    def test_three_pairs_optimal(self):
        assert abs(quantum_value(3, optimal_vectors()) - TWO_SQRT2**3) < 1e-9 * TWO_SQRT2**3

    def test_two_pairs_of_aligned_settings(self):
        # Per-pair value -2 (a'=a, b'=b, all along z), squared across pairs.
        aligned = MeasurementVectors(Z_HAT, Z_HAT, Z_HAT, Z_HAT)
        assert quantum_value(2, aligned) == pytest.approx(4.0, abs=1e-12)
        assert dense_quantum_value(2, aligned) == pytest.approx(4.0, abs=1e-10)
        assert quantum_value(2, aligned, method="tableau") == 4.0

    def test_factorized_and_dense_agree_on_random_settings(self):
        # The tableau path expands every pair into all nine Pauli terms,
        # 9^n words, so it joins the comparison up to n = 3.
        rng = np.random.default_rng(29)
        cases = [(n, i) for n in (1, 2, 3) for i in range(16)] + [(4, 0), (4, 1)]
        for n, _ in cases:
            vs = rng.standard_normal((4, 3))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            v = MeasurementVectors(*(tuple(row) for row in vs))
            fac = quantum_value(n, v)
            den = dense_quantum_value(n, v)
            assert abs(fac - den) <= 1e-9 * max(1.0, abs(fac))
            if n <= 3:
                tab = quantum_value(n, v, method="tableau")
                assert abs(tab - den) <= 1e-9 * max(1.0, abs(fac))

    @pytest.mark.parametrize("n", range(1, MAX_TABLEAU_PAIRS + 1))
    def test_three_methods_agree_on_aligned_settings(self, n):
        settings = [
            optimal_vectors(),
            MeasurementVectors(Z_HAT, X_HAT, Z_HAT, X_HAT),
            MeasurementVectors(X_HAT, Y_HAT, Y_HAT, X_HAT),
            planar_vectors(0.0, 90.0, 45.0, -45.0),
        ]
        for v in settings:
            fac = quantum_value(n, v)
            values = {"tableau": quantum_value(n, v, method="tableau"), "dense": dense_quantum_value(n, v)}
            for method, value in values.items():
                assert abs(value - fac) <= 1e-9 * max(1.0, abs(fac)), method

    def test_multiplicative_over_product_states(self):
        rng = np.random.default_rng(37)
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        v = MeasurementVectors(*(tuple(row) for row in vs))
        single = quantum_value(1, v)
        for n in (2, 3, 4):
            assert quantum_value(n, v) == pytest.approx(single**n, rel=1e-9)

    def test_input_validation(self):
        v = optimal_vectors()
        with pytest.raises(ValueError, match="n must be"):
            quantum_value(0, v)
        with pytest.raises(ValueError, match="dense path"):
            dense_quantum_value(MAX_DENSE_PAIRS + 1, v)
        with pytest.raises(ValueError, match="tableau path"):
            quantum_value(MAX_TABLEAU_PAIRS + 1, v, method="tableau")
        for method in ("exact", "dense"):
            with pytest.raises(ValueError, match="'factorized' or 'tableau'"):
                quantum_value(1, v, method=method)


class TestLhv:
    def test_sixteen_deterministic_values(self):
        # One of (b + b') and (b - b') always vanishes for +-1 values, so
        # every deterministic strategy scores exactly +-2.
        values = lhv_pair_values()
        assert len(values) == 16
        assert set(values) == {-2, 2}

    def test_bound_powers(self):
        assert lhv_max(1) == 2.0
        assert lhv_max(4) == 16.0
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            lhv_max(0)

    @pytest.mark.parametrize("n", range(1, MAX_PRODUCT_PAIRS + 1))
    def test_product_strategy_enumeration_matches_bound(self, n):
        assert product_lhv_max(n) == lhv_max(n) == gap_report(n).lhv_bound

    def test_mixed_strategies_never_beat_deterministic(self):
        rng = np.random.default_rng(41)
        deterministic = np.array(lhv_pair_values(), dtype=float)
        for _ in range(200):
            weights = rng.dirichlet(np.ones(16))
            assert abs(float(weights @ deterministic)) <= 2.0 + 1e-12

    def test_matches_operator_expectation_on_product_states(self):
        # Deterministic strategy = product state |s_a s_b> with sigma.z
        # eigenvalues s_a, s_b; enumeration must match the operator algebra.
        v = MeasurementVectors(Z_HAT, Z_HAT, Z_HAT, Z_HAT)
        op = chsh_pair_operator(v)
        for sa, sb in iter_product((0, 1), repeat=2):
            state = np.zeros(4)
            state[(sa << 1) | sb] = 1.0
            value = float(np.real(state @ op @ state))
            assert value == pytest.approx((1 - 2 * sa) * (1 - 2 * sb) * 2.0)


class TestGapReport:
    def test_single_pair(self):
        report = gap_report(1)
        assert abs(report.ratio - math.sqrt(2.0)) < 1e-9
        assert not report.sub_classical

    def test_five_pairs(self):
        report = gap_report(5)
        assert abs(report.ratio - math.sqrt(2.0) ** 5) < 1e-9 * math.sqrt(2.0) ** 5
        assert report.quantum_value == pytest.approx(TWO_SQRT2**5, rel=1e-9)
        assert report.lhv_bound == 32.0

    def test_ratio_is_quotient(self):
        report = gap_report(3)
        assert report.ratio == report.quantum_value / report.lhv_bound

    def test_degenerate_settings_flagged_sub_classical(self):
        report = gap_report(1, MeasurementVectors(Z_HAT, Z_HAT, Z_HAT, Z_HAT))
        assert report.sub_classical
        assert report.ratio <= 1.0

    def test_report_is_immutable(self):
        report = gap_report(2)
        assert isinstance(report, ChshReport)
        with pytest.raises(AttributeError):
            report.ratio = 0.0
