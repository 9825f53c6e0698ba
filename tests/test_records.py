"""The record classes: one instance of each, checked for the behaviour every
record shares (fields by position or name, frozen, equality and hash by class
and compared fields, the ``Name(field=value, ...)`` repr, ``replace``).  The
repr literals were written by the frozen-dataclass records these replaced."""

from __future__ import annotations

import pytest

from freelip import (
    AlphaSpace,
    BlockScheme,
    ExperimentCheck,
    ExperimentReport,
    FiniteSpace,
    FreeVector,
    Functional,
    IntervalSpace,
    LatticeBox,
    NormResult,
    doubling_map,
    iterate_map,
    make_free_vector,
)
from freelip.dynamics import (
    ClassificationParams,
    ClassificationReport,
    IntervalAnalysis,
    PowerCheckEntry,
    PowerCheckReport,
    RigidityCertificate,
    SideAnalysis,
)
from freelip.maps import AlphaMap, FiniteMap, LatticeMap, LipEstimate

INTERVAL = IntervalSpace(-1.0, 2.0)
PAIR = FiniteSpace(((0.0, 1.0), (1.0, 0.0)))
VECTOR = make_free_vector(INTERVAL, [(0.5, 2.0)])
SIDE = dict(side="right", case="escape", components=((0.5, 1.0),), certificate=0.25, component=(0.5, 1.0),
            sequence=(0.75, 1.0), vector=VECTOR, tail_bound=None, note="")
ENTRY = dict(point=0.5, verdict_base="BoundedOrbit", verdict_power="EscapingEvidence")
CHECK = dict(name="c", ok=True, detail="")

# (class, every field by name, a compared field and another value for it, the repr)
CASES = [
    (FiniteSpace, dict(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=1, labels=(0.0, 0.5)),
     ("matrix", ((0.0, 2.0), (2.0, 0.0))),
     "FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=1, labels=(0.0, 0.5))"),
    (IntervalSpace, dict(a=-1.0, b=2.0), ("b", 3.0), "IntervalSpace(a=-1.0, b=2.0)"),
    (LatticeBox, dict(bounds=((-1, 1), (0, 2))), ("bounds", ((-1, 1), (0, 3))),
     "LatticeBox(bounds=((-1, 1), (0, 2)))"),
    (FreeVector, dict(space=INTERVAL, terms=((0.5, 2.0),)), ("terms", ((0.5, 3.0),)),
     "FreeVector(space=IntervalSpace(a=-1.0, b=2.0), terms=((0.5, 2.0),))"),
    (Functional, dict(space=INTERVAL, fn=abs, lip_bound=1.0, name="abs"), ("lip_bound", 2.0),
     "Functional(space=IntervalSpace(a=-1.0, b=2.0), fn=<built-in function abs>, lip_bound=1.0, name='abs')"),
    (NormResult, dict(value=1.0, witness=((0.0, 0.0), (0.5, 0.5)), plan=((0.5, 0.0, 2.0, 0.5),), vector=VECTOR,
                      backend="flow", exact=False), ("exact", True),
     "NormResult(value=1.0, witness=((0.0, 0.0), (0.5, 0.5)), plan=((0.5, 0.0, 2.0, 0.5),), "
     "vector=FreeVector(space=IntervalSpace(a=-1.0, b=2.0), terms=((0.5, 2.0),)), backend='flow', exact=False)"),
    (LipEstimate, dict(value=2.0, witness=(0, 1), exact=True, note="edge"), ("value", 3.0),
     "LipEstimate(value=2.0, witness=(0, 1), exact=True, note='edge')"),
    (FiniteMap, dict(space=PAIR, table=(0, 0)), ("table", (0, 1)),
     "FiniteMap(space=FiniteSpace(matrix=((0.0, 1.0), (1.0, 0.0)), basepoint=0, labels=None), table=(0, 0))"),
    (AlphaMap, dict(space=AlphaSpace([1.0, 2.0]), table=(0,), shift=1), ("shift", 2),
     "AlphaMap(space=AlphaSpace(prefix_length=2), table=(0,), shift=1)"),
    (LatticeMap, dict(space=LatticeBox(((-1, 1),)), matrix=((1,),)), ("matrix", ((-1,),)),
     "LatticeMap(space=LatticeBox(bounds=((-1, 1),)), matrix=((1,),))"),
    (ClassificationParams, dict(horizon=10, eps_recurrent=0.1, radii=(1.0, 2.0), ladder_size=2, tail_fraction=0.25),
     ("horizon", 11),
     "ClassificationParams(horizon=10, eps_recurrent=0.1, radii=(1.0, 2.0), ladder_size=2, tail_fraction=0.25)"),
    (ClassificationReport, dict(verdict="BoundedOrbit", point=0.5, power=1, horizon=4, steps=2, gap=0.0, gap_time=2,
                                eps_recurrent=1e-09, radii=(1.0,), crossing_times=(None,), max_distance=0.5,
                                max_distance_time=0, distances=(0.5, 0.25, 0.5), tail_fraction=0.5, note="n"),
     ("gap_time", 1),
     "ClassificationReport(verdict='BoundedOrbit', point=0.5, power=1, horizon=4, steps=2, gap=0.0, gap_time=2, "
     "eps_recurrent=1e-09, radii=(1.0,), crossing_times=(None,), max_distance=0.5, max_distance_time=0, "
     "distances=(0.5, 0.25, 0.5), tail_fraction=0.5, note='n')"),
    (RigidityCertificate, dict(times=(1, 2), bound=2.0, lip_values=(2.0, 2.0), return_errors=(0.0, 0.0),
                               tolerances=(1e-09, 1e-09), passed=True, reason=""), ("passed", False),
     "RigidityCertificate(times=(1, 2), bound=2.0, lip_values=(2.0, 2.0), return_errors=(0.0, 0.0), "
     "tolerances=(1e-09, 1e-09), passed=True, reason='')"),
    (SideAnalysis, SIDE, ("case", "bounded"),
     "SideAnalysis(side='right', case='escape', components=((0.5, 1.0),), certificate=0.25, component=(0.5, 1.0), "
     "sequence=(0.75, 1.0), vector=FreeVector(space=IntervalSpace(a=-1.0, b=2.0), terms=((0.5, 2.0),)), "
     "tail_bound=None, note='')"),
    (IntervalAnalysis, dict(case="escape", sides=(SideAnalysis(**SIDE),), depth=3), ("depth", 4),
     "IntervalAnalysis(case='escape', sides=(SideAnalysis(side='right', case='escape', components=((0.5, 1.0),), "
     "certificate=0.25, component=(0.5, 1.0), sequence=(0.75, 1.0), vector=FreeVector(space=IntervalSpace(a=-1.0, "
     "b=2.0), terms=((0.5, 2.0),)), tail_bound=None, note=''),), depth=3)"),
    (PowerCheckEntry, ENTRY, ("point", 0.25),
     "PowerCheckEntry(point=0.5, verdict_base='BoundedOrbit', verdict_power='EscapingEvidence')"),
    (PowerCheckReport, dict(power=2, entries=(PowerCheckEntry(**ENTRY),), disagreements=(0.5,)), ("power", 3),
     "PowerCheckReport(power=2, entries=(PowerCheckEntry(point=0.5, verdict_base='BoundedOrbit', "
     "verdict_power='EscapingEvidence'),), disagreements=(0.5,))"),
    (ExperimentCheck, CHECK, ("ok", False), "ExperimentCheck(name='c', ok=True, detail='')"),
    (ExperimentReport, dict(name="e", params={"n": 1}, checks=(ExperimentCheck(**CHECK),), data={"x": [1.0]}),
     ("name", "f"),
     "ExperimentReport(name='e', params={'n': 1}, checks=(ExperimentCheck(name='c', ok=True, detail=''),), "
     "data={'x': [1.0]})"),
    (BlockScheme, dict(ks=(0, 1, 2)), ("ks", (0, 1, 3)), "BlockScheme(ks=(0, 1, 2))"),
]


def _hash(record):
    """The record's hash, or the TypeError of an unhashable field (a dict) by its text."""
    try:
        return hash(record)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, change, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_every_record_class_keeps_the_record_behaviour(cls, fields, change, text):
    record = cls(**fields)
    assert repr(record) == text
    assert record == cls(*fields.values()) and not record != cls(**fields)
    assert _hash(record) == _hash(cls(**fields))
    name, value = change
    changed = cls(**{**fields, name: value})
    assert record != changed and changed != record
    assert record.replace(**{name: value}) == changed and repr(record.replace(**{name: value})) == repr(changed)
    assert record.replace() == record
    assert record != fields and record.__eq__(fields) is NotImplemented
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text

    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        record.replace(unknown=1)
    required = [f for f in fields if f not in cls.__dict__]
    for f in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != f})


def test_the_twenty_cases_are_twenty_record_classes():
    assert len({case[0] for case in CASES}) == 20


def test_a_record_names_an_int_too_long_to_print_by_its_size():
    # 2**20000 has 6,021 digits, past the default limit of 4,300 that repr of an int obeys
    f = iterate_map(LatticeMap(LatticeBox(((-5, 5),)), [[2]]), 20000)
    assert repr(f) == "LatticeMap(space=LatticeBox(bounds=((-5, 5),)), matrix=((<an integer of 20001 bits>,),))"


@pytest.mark.parametrize("build, field, value, use", [
    (lambda: AlphaSpace([1.0, 2.0]), "basepoint", 2, lambda space: space.distance(1, 2)),
    (lambda: AlphaSpace([1.0, 2.0]), "_weights", None, lambda space: space.distance(1, 2)),
    (doubling_map, "xs", (9.0,), lambda f: f.apply(0.25)),
    (doubling_map, "apply", abs, lambda f: f.apply(0.25)),
], ids=["alpha-basepoint", "alpha-weights", "pl-xs", "pl-apply"])
def test_a_sequence_space_and_a_piecewise_linear_map_refuse_assignment_as_records_do(build, field, value, use):
    obj = build()
    before = (getattr(obj, field), use(obj))
    for change in (lambda: setattr(obj, field, value), lambda: delattr(obj, field)):
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete field '{field}'"):
            change()
    assert (getattr(obj, field), use(obj)) == before


def test_a_record_equals_no_record_of_another_class_with_the_same_field_values():
    entry = PowerCheckEntry(**ENTRY)
    check = ExperimentCheck(*ENTRY.values())
    assert entry != check and check != entry
    assert entry.__eq__(check) is NotImplemented
