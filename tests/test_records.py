"""The package's records are plain classes: construction by position or
keyword, with defaults where a record has a constructor of its own, value
equality and repr, a hash and read-only fields on the frozen ones, a
fresh dict default per instance, and the constructors' validation
messages."""

import copy

import pytest

from ffconsensus import (
    AnalysisReport,
    ControllabilityDecomposition,
    CycleStructure,
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    NetworkState,
    PrimeField,
    SwitchingSignal,
    Trajectory,
    WeightedDigraphFF,
    kalman_decompose,
)
from ffconsensus.cli import ScenarioConfig
from ffconsensus.consensus import _Decision, _Facts
from ffconsensus.field import _Record

F3, F5 = PrimeField(3), PrimeField(5)
A = MatrixFF(F3, [[0, 1], [0, 0]])
B = MatrixFF.column(F3, [0, 1])
SYS = LinearSystemFF(A, B)
G = WeightedDigraphFF(F3, 2, [(0, 1, 1), (1, 2, 1)])
DECOMP = kalman_decompose(SYS)
STATE = NetworkState(0, (0, 1), ((1, 1), (2, 2)))
SIGNAL = SwitchingSignal("periodic", 1, (0,))

# field values in constructor order, and whether the record is frozen
RECORDS = {
    LinearSystemFF: ({"A": A, "b": B}, True),
    ControllabilityDecomposition: (
        {name: getattr(DECOMP, name) for name in ("Q", "s", "A_c", "A_cc", "A_uc", "b_c", "companion_coeffs")},
        True,
    ),
    CycleStructure: ({"tree_depth": 2, "cycles": {1: 1}, "total_states": 9, "transient_states": 8,
                      "factor_orders": ()}, True),
    NetworkState: ({"step": 3, "leader": (0, 1), "followers": ((1, 1), (2, 2))}, True),
    Trajectory: ({"states": (STATE,), "errors": ((1, 3),), "consensus_step": None, "signal_indices": (0,),
                  "metadata": {"trial": 0}}, True),
    LeaderFollowerNetwork: ({"sys": SYS, "graphs": (G,), "gain": MatrixFF(F3, [[1, 2]])}, True),
    SwitchingSignal: ({"kind": "random", "num_graphs": 2, "sequence": (), "seed": 7}, True),
    _Facts: ({"a_degree": 2, "decomp": DECOMP, "shapes": ("dag",), "eigen": ((1, None),),
              "union_shape": "dag", "r": None, "mu": None, "passes": None}, True),
    _Decision: ({"verdict": "guaranteed", "reason": "A is nilpotent", "witness_degree": 0}, True),
    AnalysisReport: ({"verdict": "guaranteed", "mode": "static", "reason": "r", "checks": {"a": True},
                      "bounds": {"static": 4, "switching": None}, "witness": {}, "diagnostics": {"x": 1}}, False),
    ScenarioConfig: ({"doc": {"p": 3, "n": 2, "N": 2, "A": [[0, 1], [0, 0]], "b": [0, 1],
                              "graphs": [[(0, 1, 1), (1, 2, 1)]]},
                      "field": F3, "graphs": (G,), "switching_signal": SIGNAL}, False),
}

# (class with a constructor of its own, the other fields by keyword, the defaults left out)
DEFAULTS = [
    (LeaderFollowerNetwork, {"sys": SYS, "graphs": (G,)}, {"gain": None}),
    (SwitchingSignal, {"kind": "random", "num_graphs": 2, "seed": 1}, {"sequence": ()}),
    (SwitchingSignal, {"kind": "periodic", "num_graphs": 2, "sequence": (1,)}, {"seed": None}),
    (Trajectory, {"states": (STATE,), "errors": ((0,),), "consensus_step": 0, "signal_indices": ()},
     {"metadata": {}}),
]

INVALID = [
    (LinearSystemFF, (MatrixFF(F3, [[0, 1]]), B), "A must be square"),
    (LinearSystemFF, (A, MatrixFF(F3, [[0, 1], [1, 0]])), "b must be a single column of matching dimension"),
    (LinearSystemFF, (A, MatrixFF.column(F5, [0, 1])), "A and b must share a modulus"),
    (LeaderFollowerNetwork, (SYS, ()), "at least one interaction graph is required"),
    (LeaderFollowerNetwork, (SYS, (WeightedDigraphFF(F5, 2, [(0, 1, 1)]),)),
     "graph modulus differs from the system modulus"),
    (LeaderFollowerNetwork, (SYS, (G, WeightedDigraphFF(F3, 3, [(0, 1, 1)]))),
     "all graphs must have the same follower count"),
    (LeaderFollowerNetwork, (SYS, (G,), MatrixFF(F3, [[1], [2]])), "gain must be a 1 x n row"),
    (LeaderFollowerNetwork, (SYS, (G,), MatrixFF(F5, [[1, 2]])), "gain modulus differs from the system modulus"),
    (SwitchingSignal, ("sometimes", 2), "unknown switching kind 'sometimes'"),
    (SwitchingSignal, ("periodic", 2), "periodic switching requires a nonempty sequence"),
    (SwitchingSignal, ("explicit", 2, (0, 2, 1, 3)), "switching sequence contains invalid graph indices [2, 3]"),
    (SwitchingSignal, ("random", 2), "random switching requires a seed"),
]


def _build(cls):
    values, _ = RECORDS[cls]
    return cls(*values.values()), cls(**values)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_construction_equality_and_repr(cls):
    values, _ = RECORDS[cls]
    by_position, by_keyword = _build(cls)
    for rec in (by_position, by_keyword):
        assert [getattr(rec, name) for name in values] == list(values.values())
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert by_position != tuple(values.values())
    assert copy.copy(by_position) == copy.deepcopy(by_position) == by_position
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(by_position) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_frozen_records_hash_and_refuse_assignment(cls):
    values, frozen = RECORDS[cls]
    rec, twin = _build(cls)
    if not frozen:
        with pytest.raises(TypeError):
            hash(rec)
        for name in values:
            setattr(rec, name, "changed")
            assert getattr(rec, name) == "changed"
        assert rec != twin
        return
    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict or list field makes the record unhashable, as its values are
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == twin


@pytest.mark.parametrize("cls, given, defaults", DEFAULTS, ids=lambda x: getattr(x, "__name__", ""))
def test_defaults_and_a_fresh_dict_per_instance(cls, given, defaults):
    first, second = cls(**given), cls(**given)
    for name, value in defaults.items():
        assert getattr(first, name) == getattr(second, name) == value
        if isinstance(value, dict):
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls, args, message", INVALID, ids=lambda x: getattr(x, "__name__", ""))
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


# the records built by the one constructor of ``_Record``, with no ``__init__`` of their own
GENERIC = [ControllabilityDecomposition, CycleStructure, NetworkState, AnalysisReport, ScenarioConfig, _Facts,
           _Decision]


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_one_constructor_takes_fields_by_position_then_keyword(cls):
    assert cls.__init__ is _Record.__init__
    values, _ = RECORDS[cls]
    names, given = list(values), list(values.values())
    by_position = cls(*given)
    for split in range(len(names) + 1):
        assert cls(*given[:split], **dict(zip(names[split:], given[split:]))) == by_position


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_missing_extra_or_unknown_fields_raise_naming_the_fields(cls):
    values, _ = RECORDS[cls]
    message = f"{cls.__name__} takes the fields {', '.join(values)}"
    first, *_ = values
    wrong = [{"args": (*values.values(), 0)}, {"kwargs": {**values, "unknown": 0}},
             {"args": (values[first],), "kwargs": values}]
    wrong += [{"kwargs": {k: v for k, v in values.items() if k != name}} for name in values]
    for call in wrong:
        with pytest.raises(TypeError) as exc:
            cls(*call.get("args", ()), **call.get("kwargs", {}))
        assert str(exc.value) == message


def test_trajectory_is_unhashable_under_its_own_name():
    with pytest.raises(TypeError, match="unhashable type: 'Trajectory'"):
        hash(_build(Trajectory)[0])


def test_signal_with_a_seed_offset_is_a_new_signal():
    cfg = ScenarioConfig(*RECORDS[ScenarioConfig][0].values())
    cfg.switching_signal = SwitchingSignal("random", 1, seed=4)
    assert cfg.signal(3) == SwitchingSignal("random", 1, (), 7)
    assert cfg.signal(0) is cfg.switching_signal
