"""Two-observer protocol: perfect-correlation regime, noise, inefficiency."""

import math

import pytest

from bellcheck import protocol
from bellcheck.constructions import Context, ContextSystem, generalized_sets, mermin_square
from bellcheck.pauli import PauliOperator, parse_pauli
from bellcheck.protocol import ExperimentConfig, default_schedule, run_experiment
from protocol_reference import reference_experiment, reference_round


def binomial_4sigma(p, shots):
    return 4.0 * math.sqrt(p * (1.0 - p) / shots)


def one_entry(ctx_id, obs_id, mode="alone", noise=0.0, efficiency=1.0, shots=100, seed=0):
    """Every shot runs the same round: a one-entry schedule on the square."""
    return run_experiment(
        ExperimentConfig(
            n=2, system=mermin_square(), shots=shots, schedule=((ctx_id, obs_id),),
            noise=noise, efficiency=efficiency, seed=seed, bob_mode=mode,
        )
    )


class TestRunRound:
    """One protocol round, repeated over the shots of a one-entry schedule."""

    def test_perfect_regime_shared_outcomes_agree(self):
        summary = one_entry(0, 0, seed=1)
        assert summary.equality_rate == 1.0
        assert summary.equal_rounds == summary.comparable_rounds == 100
        # The shared word is a fair coin, so both outcomes occur.
        assert summary.shared_counts["alice"] == summary.shared_counts["bob"]
        assert min(summary.shared_counts["alice"].values()) > 0

    def test_in_context_mode_also_agrees(self):
        summary = one_entry(5, 8, mode="in_context", seed=2)
        assert summary.equality_rate == 1.0
        # Both observers' copies of column 3 multiply to -1 on every shot.
        assert summary.product_pass_rates == {5: 1.0}

    def test_no_inconclusive_markers_at_unit_efficiency(self):
        summary = one_entry(1, 3, noise=0.7, shots=50, seed=3)
        assert summary.conclusive_fraction == 1.0
        assert summary.comparable_rounds == 50
        assert sum(summary.shared_counts["bob"].values()) == 50

    def test_shared_observable_must_belong_to_context(self):
        # catalog index 3 is Z2, which is not in row 1 (X1, X2, X1X2)
        with pytest.raises(ValueError, match="not in context"):
            one_entry(0, 3)

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError, match="context id"):
            one_entry(17, 0)
        with pytest.raises(ValueError, match="observable id"):
            one_entry(0, 99)
        with pytest.raises(ValueError, match="bob_mode"):
            one_entry(0, 0, mode="together")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="flip probability"):
            one_entry(0, 0, noise=1.5)
        with pytest.raises(ValueError, match="efficiency"):
            one_entry(0, 0, efficiency=0.0)


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


def system_for(n):
    return mermin_square() if n == 2 else generalized_sets(n)


class TestTableauAgainstDenseOracle:
    """The compiled batch sampler against the per-round reference protocol.

    The reference measures each round on its own stream, either on dense
    state vectors (`measure_context`) or on a concrete tableau, so every
    draw is read in the same place and the summaries must be equal.
    """

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    # (0.0, 0.9) and ((0.0, 0.1), 1.0) sit just outside the exact regime,
    # where the sampler draws no flip or erasure numbers.
    @pytest.mark.parametrize(
        "noise,efficiency",
        [(0.0, 1.0), (0.1, 0.8), ((0.05, 0.2), 0.95), (0.0, 0.9), ((0.0, 0.1), 1.0)],
    )
    @pytest.mark.parametrize("n,shots", [(2, 60), (3, 40), (5, 24), (7, 8)])
    def test_summaries_equal(self, n, shots, noise, efficiency, mode):
        for seed in (0, 3, 2**40 + 1):
            config = ExperimentConfig(
                n=n, system=system_for(n), shots=shots, noise=noise,
                efficiency=efficiency, seed=seed, bob_mode=mode,
            )
            compiled = run_experiment(config)
            assert compiled == reference_experiment(config, "dense")
            assert compiled == reference_experiment(config, "tableau")

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("n,shots", [(9, 40), (11, 30), (13, 30)])
    def test_large_n_equals_tableau_reference(self, n, shots, mode):
        config = ExperimentConfig(
            n=n, system=system_for(n), shots=shots, noise=0.1,
            efficiency=0.8, seed=n, bob_mode=mode,
        )
        assert run_experiment(config) == reference_experiment(config)

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("shots", [0, 1, 7])
    def test_few_shots(self, shots, mode):
        # Fewer shots than the 18 schedule entries: only the first few run.
        config = ExperimentConfig(
            n=2, system=mermin_square(), shots=shots, noise=0.2, efficiency=0.7,
            seed=5, bob_mode=mode,
        )
        assert run_experiment(config) == reference_experiment(config)

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    def test_custom_schedule(self, mode):
        system = generalized_sets(3)
        schedule = tuple(
            (ci, system.catalog.index(system.contexts[ci].observables[k]))
            for ci, k in ((4, 0), (0, 1), (4, 0), (2, 2))
        )
        config = ExperimentConfig(
            n=3, system=system, shots=23, schedule=schedule, noise=0.1,
            efficiency=0.9, seed=11, bob_mode=mode,
        )
        assert run_experiment(config) == reference_experiment(config)

    def test_blocks_do_not_change_the_summary(self, monkeypatch):
        config = ExperimentConfig(
            n=3, system=generalized_sets(3), shots=200, noise=0.1, efficiency=0.9, seed=2
        )
        whole = run_experiment(config)
        monkeypatch.setattr(protocol, "BLOCK_SHOTS", 3)
        assert run_experiment(config) == whole == reference_experiment(config)

    def test_block_boundary_mid_schedule(self):
        """More shots than one block, the boundary inside a schedule cycle."""
        system = generalized_sets(3)
        assert protocol.BLOCK_SHOTS % len(default_schedule(system))
        config = ExperimentConfig(
            n=3, system=system, shots=protocol.BLOCK_SHOTS + 45, noise=0.1,
            efficiency=0.9, seed=13, bob_mode="in_context",
        )
        assert run_experiment(config) == reference_experiment(config)

    def test_rounds_equal(self):
        """Each round of the default schedule on its own, against both references."""
        system = generalized_sets(3)
        for entry in default_schedule(system):
            for mode in ("alone", "in_context"):
                config = ExperimentConfig(
                    n=3, system=system, shots=6, schedule=(entry,), noise=0.2,
                    efficiency=0.9, seed=8, bob_mode=mode,
                )
                fast = run_experiment(config)
                for backend in ("dense", "tableau"):
                    assert fast == reference_experiment(config, backend)


class CountingDraw:
    """Stand-in generator that counts its draws."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.25


NON_COMMUTING = ContextSystem(
    2, (Context((parse_pauli("X1", 2), parse_pauli("Z1", 2)), +1),)
)
NON_HERMITIAN = ContextSystem(2, (Context((PauliOperator(2, 1, 0, 1),), +1),))

# (system, n, schedule, bob_mode, noise, efficiency, seed, shots); with a
# schedule, its last entry is the bad one, reached after a good one.  A
# round takes no seed, so the bad-seed cases are for experiments only.
BAD_INPUTS = [
    (mermin_square(), 3, None, "alone", 0.0, 1.0, 0, 5),
    (mermin_square(), 2, ((0, 0), (17, 0)), "alone", 0.0, 1.0, 0, 5),
    (mermin_square(), 2, ((0, 0), (0, 99)), "alone", 0.0, 1.0, 0, 5),
    (mermin_square(), 2, ((0, 0), (0, 3)), "in_context", 0.0, 1.0, 0, 5),
    (mermin_square(), 2, None, "together", 0.0, 1.0, 0, 5),
    (mermin_square(), 2, None, "alone", 1.5, 1.0, 0, 5),
    (mermin_square(), 2, None, "alone", (0.1, -0.1), 1.0, 0, 5),
    (mermin_square(), 2, None, "alone", 0.0, 0.0, 0, 5),
    (mermin_square(), 2, None, "alone", 0.0, 1.0, -1, 5),
    (NON_COMMUTING, 2, None, "alone", 0.0, 1.0, 0, 5),
    (NON_HERMITIAN, 2, None, "in_context", 0.0, 1.0, 0, 5),
    # Seeds are 64-bit stream keys: 2**64 + 1 would share seed 1's streams.
    (mermin_square(), 3, None, "alone", 0.0, 1.0, 2**64 + 1, 5),
    # The seed is checked even when no shot runs.
    (mermin_square(), 2, None, "alone", 0.0, 1.0, -5, 0),
]


class TestBadInputs:
    @staticmethod
    def error(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return str(info.value)

    @pytest.mark.parametrize("case", range(len(BAD_INPUTS)))
    def test_experiment_raises_before_any_draw(self, monkeypatch, case):
        system, n, schedule, mode, noise, efficiency, seed, shots = BAD_INPUTS[case]
        config = ExperimentConfig(
            n=n, system=system, shots=shots, schedule=schedule, noise=noise,
            efficiency=efficiency, seed=seed, bob_mode=mode,
        )
        expected = self.error(reference_experiment, config)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "shot_draws", lambda *args: pytest.fail("drew first"))
            assert self.error(run_experiment, config) == expected

    @pytest.mark.parametrize("case", [i for i, c in enumerate(BAD_INPUTS) if c[6] in range(2**64)])
    def test_round_raises_before_any_draw(self, monkeypatch, case):
        """The bad entry alone, as a one-entry schedule, fails as the reference round does."""
        system, n, schedule, mode, noise, efficiency, seed, _ = BAD_INPUTS[case]
        ctx_id, obs_id = (schedule or ((0, 0),))[-1]
        rng = CountingDraw()
        args = (n, system, ctx_id, obs_id, mode, noise, efficiency)
        expected = self.error(reference_round, *args, rng, "tableau")
        assert rng.draws == 0
        config = ExperimentConfig(
            n=n, system=system, shots=1, schedule=((ctx_id, obs_id),), noise=noise,
            efficiency=efficiency, seed=seed, bob_mode=mode,
        )
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "shot_draws", lambda *args: pytest.fail("drew first"))
            assert self.error(run_experiment, config) == expected

    def test_unreached_entries_are_not_checked(self):
        config = ExperimentConfig(
            n=2, system=mermin_square(), shots=1, schedule=((0, 0), (0, 99))
        )
        assert run_experiment(config) == reference_experiment(config)
        assert run_experiment(
            ExperimentConfig(n=2, system=mermin_square(), shots=0, bob_mode="together")
        ).shots == 0
