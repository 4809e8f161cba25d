"""Two-observer protocol: perfect-correlation regime, noise, inefficiency."""

import math
from fractions import Fraction
from functools import reduce
from operator import xor
from pathlib import Path

import pytest

from bellcheck import protocol, rng
from bellcheck.constructions import FAMILY_NS, Context, ContextSystem, generalized_sets, mermin_square
from bellcheck.dsl import parse_document
from bellcheck.pauli import PauliOperator, parse_pauli
from bellcheck.protocol import MODES, ExperimentConfig, compile_schedule, default_schedule, run_experiment
from protocol_reference import Lane, reference_experiment, reference_round


def binomial_4sigma(p, shots):
    return 4.0 * math.sqrt(p * (1.0 - p) / shots)


def drew_first(*args):
    pytest.fail("drew first")


def one_entry(ctx_id, obs_id, mode="alone", noise=0.0, efficiency=1.0, shots=100, seed=0):
    """Every shot runs the same round: a one-entry schedule on the square."""
    return run_experiment(
        ExperimentConfig(
            system=mermin_square(), shots=shots, schedule=((ctx_id, obs_id),),
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
            ExperimentConfig(system=builder(), shots=600, seed=4, bob_mode=mode)
        )
        assert summary.equality_rate == 1.0
        assert summary.conclusive_fraction == 1.0
        assert set(summary.product_pass_rates.values()) == {1.0}

    def test_symmetric_noise_half(self):
        shots = 4000
        summary = run_experiment(
            ExperimentConfig(system=mermin_square(), shots=shots, noise=0.5, seed=5)
        )
        assert abs(summary.equality_rate - 0.5) < binomial_4sigma(0.5, shots)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_noise_on_both_sides_equality_closed_form(self, p):
        """Both shared outcomes flip with probability p: they agree with probability 1 - 2p + 2p^2.

        They agree when neither or both flip; flips on one side only would give 1 - p.
        """
        shots = 4000
        summary = run_experiment(
            ExperimentConfig(system=mermin_square(), shots=shots, noise=p, seed=6)
        )
        equality = 1.0 - 2.0 * p + 2.0 * p * p
        assert abs(summary.equality_rate - equality) < binomial_4sigma(equality, shots)

    def test_efficiency_gives_squared_conclusive_fraction(self):
        shots = 4000
        eta = 0.8
        summary = run_experiment(
            ExperimentConfig(system=mermin_square(), shots=shots, efficiency=eta, seed=7)
        )
        assert abs(summary.conclusive_fraction - eta * eta) < binomial_4sigma(eta * eta, shots)

    def test_bit_identical_for_equal_seeds(self):
        config = ExperimentConfig(
            system=mermin_square(), shots=500, noise=0.1, efficiency=0.9, seed=42
        )
        assert run_experiment(config) == run_experiment(config)

    def test_different_seed_differs(self):
        base = dict(system=mermin_square(), shots=500, noise=0.1, efficiency=0.9)
        a = run_experiment(ExperimentConfig(seed=1, **base))
        b = run_experiment(ExperimentConfig(seed=2, **base))
        assert a != b

    def test_zero_shots_reports_undefined_markers(self):
        for mode in ("alone", "in_context"):
            config = ExperimentConfig(system=mermin_square(), shots=0, bob_mode=mode)
            summary = run_experiment(config)
            assert summary.shots == 0
            assert summary.equality_rate is None
            assert summary.conclusive_fraction is None
            assert summary.product_pass_rates == {}
            assert summary.equal_rounds == summary.comparable_rounds == 0
            assert summary.shared_counts == {"alice": {1: 0, -1: 0}, "bob": {1: 0, -1: 0}}
            assert summary == reference_experiment(config)

    def test_default_schedule_covers_all_pairs(self):
        system = mermin_square()
        schedule = default_schedule(system)
        assert len(schedule) == 18  # 6 contexts x 3 members
        assert len(set(schedule)) == 18

    def test_custom_schedule(self):
        system = mermin_square()
        summary = run_experiment(
            ExperimentConfig(
                system=system, shots=100, schedule=((0, 0), (0, 1)), seed=9
            )
        )
        assert list(summary.product_pass_rates) == [0]

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            run_experiment(ExperimentConfig(system=mermin_square(), shots=-1))


def system_for(n):
    return mermin_square() if n == 2 else generalized_sets(n)


class TestTableauAgainstDenseOracle:
    """The compiled batch sampler against the per-round reference protocol.

    The reference measures each round on its own stream, either on dense
    state vectors (`measure_context`) or on a concrete tableau, so every
    draw is read in the same place and the summaries must be equal.
    """

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    # (0.0, 0.9), erasures only, and (0.1, 1.0), flips only, sit just
    # outside the exact regime, where the sampler draws no flip or erasure
    # numbers.  The ids "noise2" and "noise4" are pytest's names for these
    # slots from when they held a flip probability per observer; they are
    # kept so that the test ids do not change.
    @pytest.mark.parametrize(
        "noise,efficiency",
        [
            (0.0, 1.0), (0.1, 0.8), pytest.param(0.2, 0.95, id="noise2-0.95"),
            (0.0, 0.9), pytest.param(0.1, 1.0, id="noise4-1.0"),
        ],
    )
    @pytest.mark.parametrize("n,shots", [(2, 60), (3, 40), (5, 24), (7, 8)])
    def test_summaries_equal(self, n, shots, noise, efficiency, mode):
        for seed in (0, 3, 2**40 + 1):
            config = ExperimentConfig(
                system=system_for(n), shots=shots, noise=noise,
                efficiency=efficiency, seed=seed, bob_mode=mode,
            )
            compiled = run_experiment(config)
            assert compiled == reference_experiment(config, "dense")
            assert compiled == reference_experiment(config, "tableau")

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("n,shots", [(9, 40), (11, 30), (13, 30)])
    def test_large_n_equals_tableau_reference(self, n, shots, mode):
        config = ExperimentConfig(
            system=system_for(n), shots=shots, noise=0.1,
            efficiency=0.8, seed=n, bob_mode=mode,
        )
        assert run_experiment(config) == reference_experiment(config)

    @pytest.mark.parametrize("mode", ["alone", "in_context"])
    @pytest.mark.parametrize("shots", [0, 1, 7])
    def test_few_shots(self, shots, mode):
        # Fewer shots than the 18 schedule entries: only the first few run.
        config = ExperimentConfig(
            system=mermin_square(), shots=shots, noise=0.2, efficiency=0.7,
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
            system=system, shots=23, schedule=schedule, noise=0.1,
            efficiency=0.9, seed=11, bob_mode=mode,
        )
        assert run_experiment(config) == reference_experiment(config)

    def test_blocks_do_not_change_the_summary(self, monkeypatch):
        config = ExperimentConfig(
            system=generalized_sets(3), shots=200, noise=0.1, efficiency=0.9, seed=2
        )
        whole = run_experiment(config)
        monkeypatch.setattr(protocol, "BLOCK_CHUNKS", 1)
        monkeypatch.setattr(rng, "PACKED_LANES", 3)
        assert run_experiment(config) == whole == reference_experiment(config)

    def test_block_boundary_mid_schedule(self, monkeypatch):
        """More lanes than one block, the last block holding only the first few entries."""
        monkeypatch.setattr(protocol, "BLOCK_CHUNKS", 1)
        system = generalized_sets(3)
        schedule = default_schedule(system)[:4]
        config = ExperimentConfig(
            system=system, shots=256 * len(schedule) + 3, schedule=schedule, noise=0.1,
            efficiency=0.9, seed=13, bob_mode="in_context",
        )
        assert run_experiment(config) == reference_experiment(config)

    def test_rounds_equal(self):
        """Each round of the default schedule on its own, against both references."""
        system = generalized_sets(3)
        for entry in default_schedule(system):
            for mode in ("alone", "in_context"):
                config = ExperimentConfig(
                    system=system, shots=6, schedule=(entry,), noise=0.2,
                    efficiency=0.9, seed=8, bob_mode=mode,
                )
                fast = run_experiment(config)
                for backend in ("dense", "tableau"):
                    assert fast == reference_experiment(config, backend)

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_at_a_drawn_value(self, mode):
        """`noise`, then `efficiency`, equal to the uniform that shot 0 reads, cut after a 1 digit.

        A flip is U < noise and an erasure U >= efficiency.  A threshold p
        equal to the first digits of shot 0's U, up to a digit 1, ties
        with U until p's digits end; U is not below p, so the flip is not
        made and the erasure is: the sampler and the reference must read
        the tie the same way.
        """
        system = mermin_square()
        ctx_id, _ = default_schedule(system)[0]  # its shared word is outcome 0
        alice = len(system.contexts[ctx_id].observables)
        width = alice + (1 if mode == "alone" else alice)
        lane = Lane(5, 0, 0)
        ties = []
        for r in (1 + width, 2 + width):  # outcome 0's flip and erasure bits
            digits = [lane.bit(r, k) for k in range(12)]
            last = max(k for k, digit in enumerate(digits) if digit)
            ties.append(float(sum(Fraction(d, 2 ** (k + 1)) for k, d in enumerate(digits[: last + 1]))))
            assert not lane.below(r, Fraction(ties[-1]))
        for noise, efficiency in ((ties[0], 0.95), (0.05, ties[1])):
            config = ExperimentConfig(
                system=system, shots=40, noise=noise, efficiency=efficiency,
                seed=5, bob_mode=mode,
            )
            assert run_experiment(config) == reference_experiment(config)


def test_prefix_stability(monkeypatch):
    """Lane q's records depend neither on the entry's number of lanes nor on the lanes per pass.

    So shot i's records are the same in a run of any number of shots, and
    however `run_experiment` cuts the lanes into blocks and passes.
    """
    tests = [(1, 0.5, True), (2, 0.05, False), (3, 0.9, True), (5, 2**-40, False)]
    digits = {p: protocol._digits(p) for p in (0.5, 0.05, 0.9, 2**-40)}

    def planes(chunk, lanes):
        return protocol._record_planes(11, chunk, [(3, lanes, tests)], digits)[0]

    whole = planes(0, 700)
    for lanes in (0, 1, 63, 256, 257, 699):
        assert planes(0, lanes) == {r: plane & ((1 << lanes) - 1) for r, plane in whole.items()}
    monkeypatch.setattr(rng, "PACKED_LANES", 1)
    for chunk in range(3):  # blocks of one chunk, each Philox block a pass of its own
        lanes = min(256, 700 - 256 * chunk)
        expected = {r: plane >> 256 * chunk & ((1 << lanes) - 1) for r, plane in whole.items()}
        assert planes(chunk, lanes) == expected


# Flip probabilities and efficiencies at the edges of the 53-bit draw grid.
THRESHOLDS = [0.0, 5e-324, 2**-53, 0.05, 0.5, 0.9, 1 - 2**-52, 1 - 2**-53, 1.0]


@pytest.mark.parametrize("p", THRESHOLDS)
def test_integer_thresholds_equal_the_float_comparison(p):
    """Bit-sliced planes equal the definition U < p, U read from the same lane bits.

    `_record_planes` compares each lane's bits with the binary digits of
    p's integer numerator, round by round, and never compares floats.
    The reference reads each lane's bits one at a time from NumPy's
    Philox as the binary fraction U = 0.u1 u2 ..., until U < p or U >= p
    is certain, for a coin, a flip and an erasure, in three entries of
    which one spans two chunks and one has no lane.
    """
    seed, chunk = 2**64 - 1, 3
    tests = [(1, 0.5, True), (2, p, False), (3, p, True)]
    entries = [(0, 300, tests), (7, 45, tests), (2**64 - 1, 0, tests)]
    digits = {q: protocol._digits(q) for q in (0.5, p)}
    planes = protocol._record_planes(seed, chunk, entries, digits)
    for (key, lanes, _), row in zip(entries, planes):
        reads = [Lane(seed, key, 256 * chunk + q) for q in range(lanes)]
        expected = [
            [1] * lanes,
            [lane.bit(1, 0) for lane in reads],
            [lane.below(2, Fraction(p)) for lane in reads],
            [not lane.below(3, Fraction(p)) for lane in reads],
        ]
        assert row == {r: sum(bit << q for q, bit in enumerate(bits)) for r, bits in enumerate(expected)}


def test_planes_of_no_shots():
    tests = [(1, 0.5, True), (2, 0.1, False), (3, 0.9, True)]
    digits = {q: protocol._digits(q) for q in (0.5, 0.1, 0.9)}
    assert protocol._record_planes(1, 0, [(0, 0, tests)], digits) == [dict.fromkeys(range(4), 0)]
    assert protocol._record_planes(1, 0, [], digits) == []


@pytest.mark.parametrize(
    "seed,n,shots,noise,efficiency,blocks",
    [
        (0, 5, 200, 0.023, 0.863, 4062),
        (0, 7, 50, 0.05, 0.9, 3379),
        (1, 13, 200, 0.05, 0.9, 11194),
        (1, 2, 300, 0.0, 1.0, 48),
    ],
)
def test_blocks_drawn(monkeypatch, seed, n, shots, noise, efficiency, blocks):
    """The Philox blocks a run draws, summed over both Bob modes.

    Equal summaries do not show that the sampler draws no extra blocks, so
    the counts are pinned: each round draws one block per chunk of every
    plane with a lane still undecided, and no other.
    """
    drawn = []

    def counting(seed, c2, lanes):
        drawn.append(len(lanes) // 24)
        return rng.philox_blocks(seed, c2, lanes)

    monkeypatch.setattr(protocol, "philox_blocks", counting)
    for mode in MODES:
        run_experiment(
            ExperimentConfig(
                system=system_for(n), shots=shots, noise=noise,
                efficiency=efficiency, seed=seed, bob_mode=mode,
            )
        )
    assert sum(drawn) == blocks


@pytest.mark.parametrize("p", THRESHOLDS)
def test_digits_are_the_exact_binary_expansion(p):
    digits = protocol._digits(p)
    if p == 1.0:
        assert digits is None
    else:
        assert Fraction(int(digits or "0", 2), 2 ** len(digits)) == Fraction(p)
        assert not digits.endswith("0")


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

# (system, schedule, bob_mode, noise, efficiency, seed, shots); with a
# schedule, its last entry is the bad one, reached after a good one.  A
# round takes no seed, so the bad-seed cases are for experiments only.
BAD_INPUTS = [
    # NaN compares false with both ends of [0, 1], so it is refused too.
    (mermin_square(), None, "alone", math.nan, 1.0, 0, 5),
    (mermin_square(), ((0, 0), (17, 0)), "alone", 0.0, 1.0, 0, 5),
    (mermin_square(), ((0, 0), (0, 99)), "alone", 0.0, 1.0, 0, 5),
    (mermin_square(), ((0, 0), (0, 3)), "in_context", 0.0, 1.0, 0, 5),
    (mermin_square(), None, "together", 0.0, 1.0, 0, 5),
    (mermin_square(), None, "alone", 1.5, 1.0, 0, 5),
    (mermin_square(), None, "alone", -0.1, 1.0, 0, 5),
    (mermin_square(), None, "alone", 0.0, 0.0, 0, 5),
    (mermin_square(), None, "alone", 0.0, 1.0, -1, 5),
    (NON_COMMUTING, None, "alone", 0.0, 1.0, 0, 5),
    (NON_HERMITIAN, None, "in_context", 0.0, 1.0, 0, 5),
    # Seeds are 64-bit stream keys: 2**64 + 1 would share seed 1's streams.
    (mermin_square(), None, "alone", 0.0, 1.0, 2**64 + 1, 5),
    # The seed, the mode and the efficiency are checked even when no shot runs.
    (mermin_square(), None, "alone", 0.0, 1.0, -5, 0),
    (mermin_square(), None, "together", 0.0, 1.0, 0, 0),
    (mermin_square(), None, "alone", 0.0, 7.0, 0, 0),
]


class TestBadInputs:
    @staticmethod
    def error(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return str(info.value)

    @pytest.mark.parametrize("case", range(len(BAD_INPUTS)))
    def test_experiment_raises_before_any_draw(self, monkeypatch, case):
        system, schedule, mode, noise, efficiency, seed, shots = BAD_INPUTS[case]
        config = ExperimentConfig(
            system=system, shots=shots, schedule=schedule, noise=noise,
            efficiency=efficiency, seed=seed, bob_mode=mode,
        )
        expected = self.error(reference_experiment, config)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "philox_blocks", drew_first)
            assert self.error(run_experiment, config) == expected

    @pytest.mark.parametrize("case", [i for i, c in enumerate(BAD_INPUTS) if c[5] in range(2**64)])
    def test_round_raises_before_any_draw(self, monkeypatch, case):
        """The bad entry alone, as a one-entry schedule, fails as the reference round does."""
        system, schedule, mode, noise, efficiency, seed, _ = BAD_INPUTS[case]
        ctx_id, obs_id = (schedule or ((0, 0),))[-1]
        rng = CountingDraw()
        args = (system, ctx_id, obs_id, mode, noise, efficiency)
        expected = self.error(reference_round, *args, rng, "tableau")
        assert rng.draws == 0
        config = ExperimentConfig(
            system=system, shots=1, schedule=((ctx_id, obs_id),), noise=noise,
            efficiency=efficiency, seed=seed, bob_mode=mode,
        )
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "philox_blocks", drew_first)
            assert self.error(run_experiment, config) == expected

    @pytest.mark.parametrize("shots", [0, 5])
    def test_empty_schedule_raises_before_any_draw(self, monkeypatch, shots):
        """Only None selects the default schedule: an empty one is refused, not replaced."""
        config = ExperimentConfig(system=mermin_square(), shots=shots, schedule=())
        assert self.error(reference_experiment, config) == "schedule is empty"
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "philox_blocks", drew_first)
            assert self.error(run_experiment, config) == "schedule is empty"

    @pytest.mark.parametrize("shots", [2**72 + 1, 10**30])
    def test_shots_past_the_counter_range_raise_before_any_entry(self, monkeypatch, shots):
        """An entry addresses 2**64 chunks of 256 lanes, so the run is refused at once."""
        config = ExperimentConfig(system=mermin_square(), shots=shots)
        with monkeypatch.context() as patch:
            for name in ("compile_schedule", "philox_blocks"):
                patch.setattr(protocol, name, drew_first)
            message = self.error(run_experiment, config)
        assert message == f"shots must be at most 2**72, got {shots}"
        assert message == self.error(reference_experiment, config)

    def test_unreached_entries_are_not_checked(self):
        config = ExperimentConfig(
            system=mermin_square(), shots=1, schedule=((0, 0), (0, 99))
        )
        assert run_experiment(config) == reference_experiment(config)
        # The mode is not an entry's setting: it is checked with no entry reached.
        with pytest.raises(ValueError, match="bob_mode"):
            run_experiment(
                ExperimentConfig(system=mermin_square(), shots=0, bob_mode="together")
            )


VERDICT_FILES = sorted((Path(__file__).resolve().parent / "golden" / "verdicts-1").glob("*.obs"))


class TestCompiledForms:
    """The exact regime read off the compiled forms, for every seed and shot count.

    With no noise and unit efficiency, Bob's shared outcome equals Alice's
    on every shot because his shared form is hers, and a measured context
    meets its product on every shot because its forms XOR to the constant
    of its sign.  Sampled rates show this only for the seeds that ran.
    """

    @staticmethod
    def assert_exact(rounds, mode):
        for r in rounds:
            assert r.alice[r.shared[0]] == r.bob[r.shared[1]]
            assert reduce(xor, r.alice) == int(r.sign == -1)
            if mode == "in_context":
                assert reduce(xor, r.bob) == int(r.sign == -1)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [2, *FAMILY_NS])
    def test_default_schedule(self, n, mode):
        system = system_for(n)
        rounds = compile_schedule(system, default_schedule(system), mode)
        assert len(rounds) == len(default_schedule(system))
        self.assert_exact(rounds, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("path", VERDICT_FILES, ids=lambda path: path.stem)
    def test_large_registers(self, path, mode):
        """Up to 1,664 qubits, where no dense state vector reaches."""
        system = parse_document(path.read_text())
        self.assert_exact(compile_schedule(system, default_schedule(system)[:24], mode), mode)

    def test_fields(self):
        """Square, context 0 (X1, X2, X1 X2), shared word X2: Bob's coin follows Alice's two."""
        alone, in_context = (compile_schedule(mermin_square(), ((0, 1),), mode)[0] for mode in MODES)
        assert alone == (0, (0b10, 0b100, 0b110), (0b100,), (1, 0), +1)
        assert in_context == (0, (0b10, 0b100, 0b110), (0b10, 0b100, 0b110), (1, 1), +1)

    @pytest.mark.parametrize("mode,calls", [("alone", 6 + 18), ("in_context", 6 + 6)])
    def test_each_block_is_compiled_once(self, monkeypatch, mode, calls):
        """One Alice block per context, and one Bob block per shared word or context."""
        compiled, compile_context = [], protocol.compile_context

        def counting(tableau, words):
            compiled.append(words)
            return compile_context(tableau, words)

        monkeypatch.setattr(protocol, "compile_context", counting)
        system = mermin_square()
        compile_schedule(system, default_schedule(system) * 2, mode)
        assert len(compiled) == calls

    def test_checks_its_own_mode_and_the_first_bad_entry(self):
        with pytest.raises(ValueError, match="^bob_mode must be one of"):
            compile_schedule(mermin_square(), (), "together")
        with pytest.raises(ValueError, match="^unknown context id 17$"):
            compile_schedule(mermin_square(), ((0, 0), (17, 0), (0, 99)))
