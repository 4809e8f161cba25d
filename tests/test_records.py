"""Record types: immutable named tuples that keep the checks of their constructors."""

import math
import re

import numpy as np
import pytest

from oracles import StateVector, bell_product_state
from bellcheck.chsh import MeasurementVectors, gap_report, optimal_vectors
from bellcheck.cli import Check
from bellcheck.constructions import Context, mermin_square, validate
from bellcheck.parity import ParityRow, ParitySystem, build_parity_system, solve
from bellcheck.pauli import PauliOperator, parse_pauli
from bellcheck.protocol import compile_schedule, run_experiment
from bellcheck.tableau import bell_product_tableau

Z_HAT = (0.0, 0.0, 1.0)
X1 = parse_pauli("X1", 2)

# One builder per record type; each call builds an equal, fresh record.
RECORDS = {
    "PauliOperator": lambda: PauliOperator(3, 0b101, 0b011, 2),
    "ParityRow": lambda: ParityRow(0b101, 1),
    "ParitySystem": lambda: build_parity_system(mermin_square()),
    "SolveResult": lambda: solve(build_parity_system(mermin_square())),
    "Context": lambda: mermin_square().contexts[5],
    "ContextSystem": mermin_square,
    "ContextCheck": lambda: validate(mermin_square()).checks[0],
    "ValidationReport": lambda: validate(mermin_square()),
    "Check": lambda: Check("ratio", True, 2.0, 2.0, 1e-9),
    "MeasurementVectors": optimal_vectors,
    "ChshReport": lambda: gap_report(2),
    "ExperimentSummary": lambda: run_experiment(mermin_square(), 4),
    "CompiledRound": lambda: compile_schedule(mermin_square(), ((5, 8),), "in_context")[0],
    "StateVector": lambda: bell_product_state(1),
    "StabilizerTableau": lambda: bell_product_tableau.__wrapped__(1),  # not the cached copy
}
# Each record's field names, in order, and its defaults.
SHAPES = {
    "PauliOperator": ("num_qubits x_mask z_mask phase_exponent", {}),
    "ParityRow": ("mask rhs", {}),
    "ParitySystem": ("variables rows", {}),
    "SolveResult": ("satisfiable assignment certificate", {"assignment": None, "certificate": None}),
    "Context": ("observables expected_sign", {}),
    "ContextSystem": ("num_qubits contexts", {}),
    "ContextCheck": ("context_index commuting product_sign expected_sign problem", {}),
    "ValidationReport": ("checks failures", {}),
    "Check": ("name passed measured expected tolerance", {"tolerance": None}),
    "MeasurementVectors": ("a a_prime b b_prime", {}),
    "ChshReport": ("n quantum_value lhv_bound ratio sub_classical", {}),
    "ExperimentSummary": (
        "equality_rate product_pass_rates conclusive_fraction equal_rounds comparable_rounds shared_counts",
        {},
    ),
    "CompiledRound": ("context_id alice bob shared sign", {}),
    "StateVector": ("num_qubits amplitudes", {}),
    "StabilizerTableau": ("num_qubits stabilizers destabilizers signs measured", {}),
}
# Records that hold a dict or an array, so they have no hash.
UNHASHABLE = {"ExperimentSummary", "StateVector"}

# (a valid record, fields to replace, the refusal's exact text), for every
# check that a record's constructor makes.
REFUSALS = [
    (PauliOperator(2, 1, 0), {"num_qubits": 0}, "num_qubits must be >= 1, got 0"),
    (PauliOperator(2, 1, 0), {"x_mask": 4}, "mask out of range for 2 qubits: x=0x4 z=0x0"),
    (PauliOperator(2, 1, 0), {"z_mask": -1}, "mask out of range for 2 qubits: x=0x1 z=-0x1"),
    (ParityRow(0b1, 1), {"rhs": 2}, "rhs must be 0 or 1, got 2"),
    (ParityRow(0b1, 1), {"mask": -1}, "row mask must be non-negative, got -1"),
    (ParitySystem(("a",), ()), {"rows": (ParityRow(0b10, 0),)}, "row variable index 1 out of range"),
    (Context((X1,), +1), {"expected_sign": 0}, "expected_sign must be +1 or -1, got 0"),
    (Context((X1,), +1), {"observables": ()}, "context needs at least one observable"),
    (optimal_vectors(), {"a": (1.0, 0.0)}, "a must be a 3-vector"),
    (optimal_vectors(), {"b_prime": (2, 0, 0)}, "b_prime is not a unit vector: (2.0, 0.0, 0.0)"),
    (optimal_vectors(), {"a": (math.nan, 0, 0)}, "a is not a unit vector: (nan, 0.0, 0.0)"),
    (StateVector(1, np.array([1.0, 0.0])), {"num_qubits": 0}, "num_qubits must be in 1..26"),
    (StateVector(1, np.array([1.0, 0.0])), {"amplitudes": np.ones(3)}, "expected 2 amplitudes, got (3,)"),
    (StateVector(1, np.array([1.0, 0.0])), {"amplitudes": np.ones(2)}, "state is not normalized"),
]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_defaults_keep_their_shape(name):
    """Field names, their order, and each default with its type (so 0.0 is not 0)."""
    fields, defaults = SHAPES[name]
    record = RECORDS[name]()
    assert record._fields == tuple(fields.split())
    assert repr(record._field_defaults) == repr(defaults)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(set(RECORDS) - UNHASHABLE))
def test_equal_records_hash_equally(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "record,fields,message", REFUSALS, ids=[f"{type(r).__name__}-{m}" for r, _, m in REFUSALS]
)
def test_refusals_keep_their_text(record, fields, message):
    """The constructor refuses, and so does `_replace`, which builds through it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)(**{**record._asdict(), **fields})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**fields)


def test_phase_exponent_is_reduced_mod_4():
    assert PauliOperator(1, 1, 0, 5).phase_exponent == 1
    assert PauliOperator(1, 1, 0, -1).phase_exponent == 3
    assert PauliOperator(1, 1, 0)._replace(phase_exponent=6).phase_exponent == 2
    assert PauliOperator(1, 1, 0, 4) == PauliOperator(1, 1, 0, 0)


def test_measurement_vectors_are_float_tuples():
    v = MeasurementVectors([0, 0, 1], np.array([1, 0, 0]), Z_HAT, b_prime=(0, 1, 0))
    for vector in v:
        assert type(vector) is tuple
        assert [type(x) for x in vector] == [float] * 3
    assert v == (Z_HAT, (1.0, 0.0, 0.0), Z_HAT, (0.0, 1.0, 0.0))


def test_records_are_tuples_of_their_fields():
    """Named tuples iterate, index, and equal the plain tuple of their fields."""
    op = PauliOperator(2, 1, 2, 1)
    assert op == (2, 1, 2, 1)
    assert tuple(op) == (op.num_qubits, op.x_mask, op.z_mask, op.phase_exponent)
    assert op[1] == op.x_mask
    assert repr(op) == "PauliOperator(num_qubits=2, x_mask=1, z_mask=2, phase_exponent=1)"
