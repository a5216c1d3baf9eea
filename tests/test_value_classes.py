"""Every value class declared with ``revcat.record.frozen`` behaves as the
frozen dataclass it replaces, and every value class copies and pickles.

``TABLE`` has one row per class: field values that construct it, and for
each field another value.  The reference is a frozen dataclass twin made in
the test, with the same fields, the same ones left out of comparison and the
same values: ``repr``, ``==`` and ``hash`` must agree with it.  The classes
that ``record.interned`` builds have no row: each refuses assignment and
deletion of every field, and a hom-set of its bottom and metric too.
"""
from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import sys
from operator import attrgetter
from dataclasses import field, make_dataclass
from typing import ClassVar

import pytest

import revcat
from revcat import record
from revcat.cat.dstoch import StochMorphism
from revcat.cat.laws import LawConfig
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cli import Suite
from revcat.errors import DimensionMismatch, InvalidArgument, UnsupportedOperation
from revcat.functionals.expr import (
    Const,
    DaggerFn,
    Host,
    IdentityFn,
    JoinOf,
    JoinWith,
    Param,
    PostCompose,
    PreCompose,
    Seq,
)
from revcat.functionals.functors import DisjointUnionWith, IdentityFunctor
from revcat.functionals.naturality import NaturalFamily
from revcat.functionals.param import ParamExpr
from revcat.order import FixPolicy, KleeneResult
from revcat.record import FrozenInstanceError
from revcat.report import Violation
from revcat.revlang.interp import STUCK, UNDEFINED
from revcat.revlang.syntax import Atom, CallRef, Clause, Cons, FuncDef, LetStep, Nil, Pair, Program, S, Var, Z
from revcat.revlang.validate import Issue

X, Y = FinObject(2), FinObject(1)
S2, S1 = HomSpace("rel", X, X), HomSpace("rel", Y, Y)
REL = RelMorphism(X, X, (1, 2))
CLAUSE = Clause(Var("x"), (), Var("x"), 1)


def step(h):
    return h


# (class, field values, another value for each field).  The other values
# need not pass validation: the changed instances are built past it.
TABLE = [
    (RelMorphism, (X, X, (1, 2)), (Y, FinObject(3), (1, 3))),
    (PInjMorphism, (X, X, (1, None)), (Y, FinObject(3), (None, 1))),
    (StochMorphism, (X, X, ((0.5, 0.0), (0.0, 0.5))), (Y, Y, ((0.5, 0.0), (0.0, 0.25)))),
    (LawConfig, ((0, 1), 20, 3, 1e-9, 10, 4), ((1,), 21, None, 0.0, 11, 5)),
    (Violation, ("law", "w"), ("other", "v")),
    (FixPolicy, (5, 0.5), (6, 0.0)),
    (KleeneResult, (REL, 3, None), (RelMorphism.identity(X), 4, 0.5)),
    (Issue, ("f", 1, "message"), ("g", 2, "other")),
    (LetStep, (Var("y"), CallRef("f"), Var("x")), (Var("z"), CallRef("g"), Var("w"))),
    (Clause, (Var("x"), (), Var("x"), 1), (Var("y"), (LetStep(Var("y"), CallRef("f"), Var("x")),), Var("y"), 2)),
    (FuncDef, ("f", (), (CLAUSE,), 1), ("g", ("h",), (), 2)),
    (Suite, ("s", ("rel",), (), step, step), ("t", ("pinj",), ("rel",), print, print)),
    (Const, (REL, S2), (RelMorphism.identity(X), S1)),
    (IdentityFn, (S2,), (S1,)),
    (PreCompose, (REL, S2), (RelMorphism.identity(X), S1)),
    (PostCompose, (REL, S2), (RelMorphism.identity(X), S1)),
    (DaggerFn, (S2,), (S1,)),
    (JoinWith, (REL,), (RelMorphism.identity(X),)),
    (Seq, (IdentityFn(S2), DaggerFn(S2)), (DaggerFn(S2), IdentityFn(S2))),
    (JoinOf, (IdentityFn(S2), DaggerFn(S2)), (DaggerFn(S2), IdentityFn(S2))),
    (Host, (step, S2, S2, "h"), (print, S1, S1, "g")),
    (Param, (S2, S2), (S1, S1)),
    (ParamExpr, (Param(S2, S2), S2), (IdentityFn(S2), S1)),
    (NaturalFamily, ("n", "rel", IdentityFunctor(), IdentityFunctor(), step),
     ("m", "pinj", DisjointUnionWith(Y), DisjointUnionWith(Y), print)),
    (IdentityFunctor, (), ()),
    (DisjointUnionWith, (Y,), (X,)),
]

# The fields that the dataclasses declared with ``compare=False``.
UNCOMPARED = {Clause: ("line",), FuncDef: ("line",), NaturalFamily: ("component",)}

# Constructions that ``__post_init__``, or ``FinObject._check``, refuses.
INVALID = [
    (lambda: FinObject(-1), InvalidArgument),
    (lambda: RelMorphism(X, X, (8,)), DimensionMismatch),
    (lambda: RelMorphism(X, X, (8, 0)), DimensionMismatch),
    (lambda: PInjMorphism(X, X, (0, 0)), DimensionMismatch),
    (lambda: StochMorphism(X, Y, ((1.0,),)), DimensionMismatch),
    (lambda: FixPolicy(max_iterations=0), InvalidArgument),
    (lambda: PreCompose(RelMorphism.identity(Y), S2), DimensionMismatch),
    (lambda: PostCompose(RelMorphism.identity(Y), S2), DimensionMismatch),
    (lambda: JoinWith(StochMorphism.identity(X)), UnsupportedOperation),
    (lambda: Seq(IdentityFn(S2), IdentityFn(S1)), DimensionMismatch),
    (lambda: JoinOf(IdentityFn(S2), IdentityFn(S1)), DimensionMismatch),
    (lambda: ParamExpr(Param(S2, S2), S1), DimensionMismatch),
]


def twin_of(cls):
    """The frozen dataclass ``cls`` replaces: its fields, those in
    ``UNCOMPARED`` left out of comparison."""
    uncompared = UNCOMPARED.get(cls, ())
    twin = make_dataclass(
        cls.__name__,
        [(name, object, field(compare=name not in uncompared)) for name in cls._fields],
        frozen=True,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def unvalidated(cls, values):
    """An instance of ``cls`` holding ``values``, built past ``__post_init__``."""
    made = object.__new__(cls)
    record.filler(cls)(made, values)
    return made


def differences(cls, values, others) -> list[str]:
    """How ``cls`` departs from its dataclass twin on the row's values."""
    found = []
    twin = twin_of(cls)
    a, b, reference = cls(*values), cls(*values), twin(*values)
    if not (a == b and hash(a) == hash(b) == hash(reference)):
        found.append("equal values are not equal with the twin's hash")
    if cls(**dict(zip(cls._fields, values))) != a:
        found.append("construction by keyword differs")
    if cls.__repr__.__module__ == record.__name__ and repr(a) != repr(reference):
        found.append(f"repr {a!r} is not {reference!r}")
    for i, name in enumerate(cls._fields):
        changed = values[:i] + (others[i],) + values[i + 1:]
        expected = reference == twin(*changed)
        if (a == unvalidated(cls, changed)) != expected or (a != unvalidated(cls, changed)) == expected:
            found.append(f"a change to {name!r} compares unlike the twin")
        for action in (lambda: setattr(a, name, others[i]), lambda: delattr(a, name)):
            try:
                action()
                found.append(f"{name!r} is not frozen")
            except FrozenInstanceError:
                pass
    return found


@pytest.mark.parametrize("cls, values, others", TABLE, ids=[row[0].__name__ for row in TABLE])
def test_a_value_class_behaves_as_its_frozen_dataclass(cls, values, others):
    assert len(values) == len(others) == len(cls._fields)
    assert differences(cls, values, others) == []
    if "__slots__" in vars(cls):
        assert cls.__slots__ == cls._fields


@pytest.mark.parametrize("build, error", INVALID)
def test_validation_still_runs_at_construction(build, error):
    with pytest.raises(error):
        build()


# One value of each interned class.
INTERNED = [FinObject(2), S2, Z(), S(Z()), Nil(), Cons(Z(), Nil()), Pair(Z(), Z()), Atom("a"), Var("x"),
            CallRef("f", (CallRef("g"),), True)]
# Each interned value with each attribute it refuses to change: its fields,
# the bottom and metric that a hom-set derives from them, and a new name.
REFUSED = [
    (value, name)
    for value in INTERNED
    for name in (*type(value)._fields, *(("bottom", "metric") if type(value) is HomSpace else ()), "other")
]


def test_the_table_has_a_row_for_every_value_class():
    for info in pkgutil.walk_packages(revcat.__path__, "revcat."):
        importlib.import_module(info.name)
    classes = {
        value
        for name, module in list(sys.modules.items())
        if name.startswith("revcat.")
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == name
    }
    declared = {
        value for value in classes
        if vars(value).get("__init__") is not None and vars(value)["__init__"].__module__ == record.__name__
    }
    assert declared == {row[0] for row in TABLE}
    # The interned classes compare by identity and have no row.  Each gets
    # its constructor from ``record.interned``: no other class defines one.
    interned = {value for value in classes if "__new__" in vars(value)}
    assert interned == {type(value) for value in INTERNED}
    for cls in interned:
        assert vars(cls)["__new__"].__func__.__module__ == record.__name__, cls
        assert vars(cls)["__setattr__"] is vars(cls)["__delattr__"] is record.refuse, cls


@pytest.mark.parametrize("value, name", REFUSED, ids=[f"{type(value).__name__}-{name}" for value, name in REFUSED])
def test_an_interned_value_cannot_be_assigned_or_deleted(value, name):
    before = getattr(value, name, None)
    with pytest.raises(FrozenInstanceError, match="assign"):
        setattr(value, name, RelMorphism.identity(X))
    with pytest.raises(FrozenInstanceError, match="delete"):
        delattr(value, name)
    assert getattr(value, name, None) is before
    assert type(value)(*[getattr(value, field) for field in type(value)._fields]) is value
    # Every Kleene chain in a hom-set starts at its bottom.
    assert HomSpace("rel", X, X).bottom == RelMorphism.bottom(X, X)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}
# Interned values and sentinels: a round trip gives back the object itself.
IDENTICAL = INTERNED + [UNDEFINED, STUCK]
# One value per other class; a Host holds a host function and is left out.
COPIED = [cls(*values) for cls, values, _ in TABLE if cls is not Host]
COPIED.append(Program(("a",), {"f": FuncDef("f", (), (CLAUSE,), 1)}))


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
@pytest.mark.parametrize("value", IDENTICAL + COPIED, ids=lambda value: type(value).__name__)
def test_a_value_copies_and_pickles(value, round_trip):
    again = ROUND_TRIPS[round_trip](value)
    assert type(again) is type(value) and again == value
    assert (again is value) == any(value is kept for kept in IDENTICAL)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
def test_a_copy_is_built_again_by_the_validating_constructor(round_trip):
    with pytest.raises(DimensionMismatch):
        ROUND_TRIPS[round_trip](unvalidated(RelMorphism, (X, X, (8, 0))))


def test_fields_read_the_annotations_of_the_body_in_order():
    @record.frozen
    class Point:
        __slots__ = ("x", "y")
        dims: ClassVar[int] = 2
        x: int
        y: int

    @record.frozen
    class Line:
        _uncompared = ("label",)
        start: Point
        end: Point
        label: str = ""

    p = Point(1, 2)
    assert Point._fields == ("x", "y") and Line._fields == ("start", "end", "label")
    assert Line(p, p) == Line(p, p, "other") and Line(p, p).label == ""
    with pytest.raises(TypeError):
        Point(1)
    with pytest.raises(TypeError):
        Point(1, 2, 3)
    with pytest.raises(TypeError):
        Point(1, y=2, z=3)


def test_a_helper_whose_eq_drops_a_field_fails_the_parity(monkeypatch):
    # Sensitivity: a helper whose comparison key leaves out the last field
    # must show up as a difference from the twin.
    monkeypatch.setattr(record, "attrgetter", lambda *names: attrgetter(*names[:-1]))

    @record.frozen
    class Broken:
        first: int
        last: int

    assert differences(Broken, (1, 2), (3, 4)) == ["equal values are not equal with the twin's hash",
                                                   "a change to 'last' compares unlike the twin"]
