"""Two-observer protocol: perfect-correlation regime, noise, inefficiency."""

import math

import pytest

from bellcheck import protocol
from bellcheck.constructions import generalized_sets, mermin_square
from bellcheck.protocol import (
    ExperimentConfig,
    default_schedule,
    run_experiment,
    run_round,
)
from bellcheck.rng import shot_stream
from bellcheck.states import bell_product_state, measure_context


def binomial_4sigma(p, shots):
    return 4.0 * math.sqrt(p * (1.0 - p) / shots)


class TestRunRound:
    def test_perfect_regime_shared_outcomes_agree(self):
        system = mermin_square()
        for shot in range(100):
            record = run_round(2, system, 0, 0, "alone", 0.0, 1.0, shot_stream(1, shot))
            assert record.shared_alice == record.shared_bob
            assert record.shared_alice in (+1, -1)

    def test_in_context_mode_also_agrees(self):
        system = mermin_square()
        for shot in range(100):
            record = run_round(2, system, 5, 8, "in_context", 0.0, 1.0, shot_stream(2, shot))
            assert record.shared_alice == record.shared_bob
            product = 1
            for v in record.bob_outcomes:
                product *= v
            assert product == system.contexts[5].expected_sign

    def test_no_inconclusive_markers_at_unit_efficiency(self):
        system = mermin_square()
        for shot in range(50):
            record = run_round(2, system, 1, 3, "alone", 0.7, 1.0, shot_stream(3, shot))
            assert None not in record.alice_outcomes
            assert None not in record.bob_outcomes

    def test_shared_observable_must_belong_to_context(self):
        system = mermin_square()
        # catalog index 3 is Z2, which is not in row 1 (X1, X2, X1X2)
        with pytest.raises(ValueError, match="not in context"):
            run_round(2, system, 0, 3, "alone", 0.0, 1.0, shot_stream(0, 0))

    def test_unknown_ids_rejected(self):
        system = mermin_square()
        with pytest.raises(ValueError, match="context id"):
            run_round(2, system, 17, 0, "alone", 0.0, 1.0, shot_stream(0, 0))
        with pytest.raises(ValueError, match="observable id"):
            run_round(2, system, 0, 99, "alone", 0.0, 1.0, shot_stream(0, 0))
        with pytest.raises(ValueError, match="bob_mode"):
            run_round(2, system, 0, 0, "together", 0.0, 1.0, shot_stream(0, 0))

    def test_parameter_validation(self):
        system = mermin_square()
        with pytest.raises(ValueError, match="flip probability"):
            run_round(2, system, 0, 0, "alone", 1.5, 1.0, shot_stream(0, 0))
        with pytest.raises(ValueError, match="efficiency"):
            run_round(2, system, 0, 0, "alone", 0.0, 0.0, shot_stream(0, 0))


class TestRunExperiment:
    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("n,builder", [(2, mermin_square), (3, lambda: generalized_sets(3))])
    def test_exact_regime(self, n, builder, mode):
        summary = run_experiment(
            ExperimentConfig(n=n, system=builder(), shots=600, seed=4, bob_mode=mode)
        )
        assert summary.equality_rate == 1.0
        assert summary.conclusive_fraction == 1.0
        assert set(summary.product_pass_rates.values()) == {1.0}

    def test_symmetric_noise_half(self):
        shots = 4000
        summary = run_experiment(
            ExperimentConfig(n=2, system=mermin_square(), shots=shots, noise=0.5, seed=5)
        )
        assert abs(summary.equality_rate - 0.5) < binomial_4sigma(0.5, shots)

    def test_one_sided_noise_equality_is_one_minus_p(self):
        shots = 4000
        p = 0.3
        summary = run_experiment(
            ExperimentConfig(
                n=2, system=mermin_square(), shots=shots, noise=(p, 0.0), seed=6
            )
        )
        assert abs(summary.equality_rate - (1.0 - p)) < binomial_4sigma(1.0 - p, shots)

    def test_efficiency_gives_squared_conclusive_fraction(self):
        shots = 4000
        eta = 0.8
        summary = run_experiment(
            ExperimentConfig(n=2, system=mermin_square(), shots=shots, efficiency=eta, seed=7)
        )
        assert abs(summary.conclusive_fraction - eta * eta) < binomial_4sigma(eta * eta, shots)

    def test_bit_identical_for_equal_seeds(self):
        config = ExperimentConfig(
            n=2, system=mermin_square(), shots=500, noise=0.1, efficiency=0.9, seed=42
        )
        assert run_experiment(config) == run_experiment(config)

    def test_different_seed_differs(self):
        base = dict(n=2, system=mermin_square(), shots=500, noise=0.1, efficiency=0.9)
        a = run_experiment(ExperimentConfig(seed=1, **base))
        b = run_experiment(ExperimentConfig(seed=2, **base))
        assert a != b

    def test_zero_shots_reports_undefined_markers(self):
        summary = run_experiment(ExperimentConfig(n=2, system=mermin_square(), shots=0))
        assert summary.shots == 0
        assert summary.equality_rate is None
        assert summary.conclusive_fraction is None
        assert summary.product_pass_rates == {}

    def test_default_schedule_covers_all_pairs(self):
        system = mermin_square()
        schedule = default_schedule(system)
        assert len(schedule) == 18  # 6 contexts x 3 members
        assert len(set(schedule)) == 18

    def test_custom_schedule(self):
        system = mermin_square()
        summary = run_experiment(
            ExperimentConfig(
                n=2, system=system, shots=100, schedule=((0, 0), (0, 1)), seed=9
            )
        )
        assert list(summary.product_pass_rates) == [0]

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            run_experiment(ExperimentConfig(n=2, system=mermin_square(), shots=-1))


class TestTableauAgainstDenseOracle:
    """The protocol's tableau path against the same protocol on state vectors.

    `measure_context` and `measure_tableau` take and return their states the
    same way, so swapping them (and the initial state) inside `protocol`
    rebuilds the dense path with every draw in the same place.
    """

    @staticmethod
    def dense(monkeypatch, fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "bell_product_tableau", bell_product_state)
            patch.setattr(protocol, "measure_tableau", measure_context)
            return fn(*args)

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("noise,efficiency", [(0.0, 1.0), (0.1, 0.8), ((0.05, 0.2), 0.95)])
    @pytest.mark.parametrize("n,shots", [(2, 60), (3, 40), (5, 24), (7, 8)])
    def test_summaries_equal(self, monkeypatch, n, shots, noise, efficiency, mode):
        system = mermin_square() if n == 2 else generalized_sets(n)
        for seed in (0, 3, 2**40 + 1):
            config = ExperimentConfig(
                n=n, system=system, shots=shots, noise=noise,
                efficiency=efficiency, seed=seed, bob_mode=mode,
            )
            assert run_experiment(config) == self.dense(monkeypatch, run_experiment, config)

    def test_rounds_equal(self, monkeypatch):
        system = generalized_sets(3)
        for ctx_id, obs_id in default_schedule(system):
            for mode in ("alone", "in_context"):
                args = (3, system, ctx_id, obs_id, mode, 0.2, 0.9)
                fast = run_round(*args, shot_stream(8, obs_id))
                slow = self.dense(monkeypatch, run_round, *args, shot_stream(8, obs_id))
                assert fast == slow
