"""A closed DSL of continuous hom-set functionals, plus conjugation.

Every node denotes a continuous map between two hom-sets and applies
itself.  Conjugation and documents are derived from the node's fields:
morphisms (declared ``object``), hom-spaces and sub-expressions.  An opaque
Host node is conjugated extensionally by wrapping it between daggers.
Both agree pointwise with h |-> phi(h+)+.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, ClassVar, get_type_hints

from ..cat import (
    CATEGORIES,
    DSTOCH,
    FinObject,
    StochMorphism,
    dagger,
    join,
    morphism_from_doc,
    morphism_to_doc,
)
from ..cat.dstoch import read_entry
from ..cat.objects import read_nat
from ..errors import DimensionMismatch, ParseError, UnsupportedOperation
from .spaces import HomSpace, space_of


@dataclass(frozen=True)
class FunctionalExpr:
    """Base class; every node exposes declared dom/cod hom-spaces, its
    document ``op`` and ``apply(h)`` for an ``h`` checked to lie in dom."""

    op: ClassVar[str]

    def __call__(self, h):
        return apply_functional(self, h)


@dataclass(frozen=True)
class Const(FunctionalExpr):
    op: ClassVar[str] = "const"
    value: object
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return space_of(self.value)

    def apply(self, h):
        return self.value


@dataclass(frozen=True)
class IdentityFn(FunctionalExpr):
    op: ClassVar[str] = "identity"
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.dom

    def apply(self, h):
        return h


@dataclass(frozen=True)
class PreCompose(FunctionalExpr):
    """h |-> h . m, reindexing the source along m."""

    op: ClassVar[str] = "precompose"
    value: object
    dom: HomSpace

    def __post_init__(self):
        sp = space_of(self.value)
        if sp.category != self.dom.category or sp.dst != self.dom.src:
            raise DimensionMismatch(f"precompose {sp!r} against domain {self.dom!r}")

    @property
    def cod(self) -> HomSpace:
        return HomSpace(self.dom.category, space_of(self.value).src, self.dom.dst)

    def apply(self, h):
        return h.compose(self.value)


@dataclass(frozen=True)
class PostCompose(FunctionalExpr):
    """h |-> m . h, reindexing the target along m."""

    op: ClassVar[str] = "postcompose"
    value: object
    dom: HomSpace

    def __post_init__(self):
        sp = space_of(self.value)
        if sp.category != self.dom.category or sp.src != self.dom.dst:
            raise DimensionMismatch(f"postcompose {sp!r} against domain {self.dom!r}")

    @property
    def cod(self) -> HomSpace:
        return HomSpace(self.dom.category, self.dom.src, space_of(self.value).dst)

    def apply(self, h):
        return self.value.compose(h)


@dataclass(frozen=True)
class DaggerFn(FunctionalExpr):
    op: ClassVar[str] = "dagger"
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.dom.flipped()

    def apply(self, h):
        return dagger(h)


@dataclass(frozen=True)
class JoinWith(FunctionalExpr):
    op: ClassVar[str] = "joinwith"
    value: object

    def __post_init__(self):
        if not self.value.has_joins:
            raise UnsupportedOperation(f"joins are not provided for {self.value.category}")

    @property
    def dom(self) -> HomSpace:
        return space_of(self.value)

    @property
    def cod(self) -> HomSpace:
        return space_of(self.value)

    def apply(self, h):
        return join(h, self.value)


@dataclass(frozen=True)
class Seq(FunctionalExpr):
    op: ClassVar[str] = "seq"
    first: FunctionalExpr
    second: FunctionalExpr

    def __post_init__(self):
        if self.first.cod != self.second.dom:
            raise DimensionMismatch(
                f"cannot chain {self.first.cod!r} into {self.second.dom!r}"
            )

    @property
    def dom(self) -> HomSpace:
        return self.first.dom

    @property
    def cod(self) -> HomSpace:
        return self.second.cod

    def apply(self, h):
        return self.second.apply(self.first.apply(h))


@dataclass(frozen=True)
class JoinOf(FunctionalExpr):
    op: ClassVar[str] = "joinof"
    left: FunctionalExpr
    right: FunctionalExpr

    def __post_init__(self):
        if self.left.dom != self.right.dom or self.left.cod != self.right.cod:
            raise DimensionMismatch("joined functionals must share dom and cod")

    @property
    def dom(self) -> HomSpace:
        return self.left.dom

    @property
    def cod(self) -> HomSpace:
        return self.left.cod

    def apply(self, h):
        return join(self.left.apply(h), self.right.apply(h))


@dataclass(frozen=True)
class Host(FunctionalExpr):
    """Opaque host-language functional; not serializable."""

    op: ClassVar[str] = "host"
    fn: Callable
    dom: HomSpace
    cod: HomSpace
    name: str = "host"

    def apply(self, h):
        return self.fn(h)


def apply_functional(phi: FunctionalExpr, h):
    if space_of(h) != phi.dom:
        raise DimensionMismatch(f"{h!r} is not in {phi.dom!r}")
    return phi.apply(h)


@cache
def node_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, declared type) of each field of a node class, read once."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def rebuild(node, rules: dict, cls=None):
    """A ``cls`` (by default ``node``'s own class) made from ``node``'s
    fields, each passed through the rule for its declared type."""
    args = (rules[kind](getattr(node, name)) for name, kind in node_fields(type(node)))
    return (cls or type(node))(*args)


# Conjugation daggers each morphism, flips each space and conjugates each
# sub-expression (by the module-level name, which a tracer may wrap).
CONJ_RULES = {
    object: dagger,
    HomSpace: HomSpace.flipped,
    FunctionalExpr: lambda phi: conj(phi),
}
# (h . m)+ = m+ . h+: conjugation trades pre- for post-composition.
_CONJ_CLASS = {PreCompose: PostCompose, PostCompose: PreCompose}


def conj(phi: FunctionalExpr) -> FunctionalExpr:
    """The conjugate functional, extensionally h |-> phi(h+)+."""
    if isinstance(phi, Host):
        return Host(
            lambda h, fn=phi.fn: dagger(fn(dagger(h))),
            phi.dom.flipped(),
            phi.cod.flipped(),
            name=f"conj({phi.name})",
        )
    return rebuild(phi, CONJ_RULES, _CONJ_CLASS.get(type(phi)))


# -- serialization ----------------------------------------------------------
# A document is {"op": op} plus one key per field ("m" for ``value``); a
# node without sub-expressions may take a leading stage as "inner".


def _space_to_doc(space: HomSpace) -> dict:
    return {"cat": space.category, "src": space.src.size, "dst": space.dst.size}


def _space_from_doc(doc: dict) -> HomSpace:
    if not isinstance(doc, dict) or not {"cat", "src", "dst"} <= doc.keys():
        raise ParseError(f"a space must be an object with 'cat', 'src' and 'dst', got {doc!r}")
    if doc["cat"] not in CATEGORIES:
        raise ParseError(f"unknown category {doc['cat']!r} in the 'cat' field of a space")
    src, dst = (FinObject(read_nat(doc[key], key)) for key in ("src", "dst"))
    return HomSpace(doc["cat"], src, dst)


_DOC_KEY = {"value": "m"}
_TO_DOC = {
    object: morphism_to_doc,
    HomSpace: _space_to_doc,
    FunctionalExpr: lambda phi: functional_to_doc(phi),
}


def _takes_inner(cls) -> bool:
    return all(kind is not FunctionalExpr for _, kind in node_fields(cls))


def functional_to_doc(phi: FunctionalExpr) -> dict:
    if isinstance(phi, Host):
        raise TypeError(f"{phi!r} is not serializable")
    doc = {"op": phi.op}
    for name, kind in node_fields(type(phi)):
        doc[_DOC_KEY.get(name, name)] = _TO_DOC[kind](getattr(phi, name))
    # A later stage takes the leading one as "inner" only if it has no
    # sub-expressions: a nested Seq's document may already hold an "inner".
    if isinstance(phi, Seq) and _takes_inner(type(phi.second)):
        return {**doc["second"], "inner": doc["first"]}
    return doc


def _affine_host(doc: dict) -> Host:
    """Entrywise a |-> shift * I + scale * a on square stochastic matrices.

    ``shift`` and ``scale`` come from the document, so each step builds its
    result through the validating constructor.
    """
    n = read_nat(doc["n"], "n")
    scale = read_entry(doc["scale"], "scale")
    shift = read_entry(doc["shift"], "shift")
    obj = FinObject(n)
    space = HomSpace(DSTOCH, obj, obj)

    def step(a):
        return StochMorphism(
            obj,
            obj,
            [[shift * float(i == j) + scale * x for j, x in enumerate(row)] for i, row in enumerate(a.rows)],
        )

    return Host(step, space, space, name=f"affine({shift}+{scale}a)")


HOST_BUILDERS = {"affine": _affine_host}
# What a host document may hold besides "op" and "inner".
_HOST_KEYS = ("name", "n", "scale", "shift")

_NODES = {cls.op: cls for cls in FunctionalExpr.__subclasses__()}
# The domain of a node whose document gives none, from its morphism's space;
# any other node without a "dom" takes the domain of its context.
_DEFAULT_DOM = {
    Const: lambda sp: sp,
    PreCompose: lambda sp: HomSpace(sp.category, sp.dst, sp.dst),
    PostCompose: lambda sp: HomSpace(sp.category, sp.src, sp.src),
}


@cache
def _doc_keys(cls) -> frozenset:
    names = _HOST_KEYS if cls is Host else [_DOC_KEY.get(n, n) for n, _ in node_fields(cls)]
    return frozenset(["op", *names, *(["inner"] if _takes_inner(cls) else [])])


def functional_from_doc(doc: dict, dom: HomSpace | None = None) -> FunctionalExpr:
    """Decode a functional document.

    ``dom`` supplies the domain for nodes that cannot infer it; square
    morphism arguments default to an endo space on their own objects.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("op"), str):
        raise ParseError("functional document must be an object with a string 'op' field")
    op = doc["op"]
    cls = _NODES.get(op)
    if cls is None:
        raise ParseError(f"unknown functional op {op!r}")
    extra = set(doc) - _doc_keys(cls)
    if extra:
        raise ParseError(f"unknown fields on {op!r} node: {sorted(extra)}")

    inner = None
    if "inner" in doc:
        inner = functional_from_doc(doc["inner"], dom)
        dom = inner.cod

    if "dom" in doc:
        dom = _space_from_doc(doc["dom"])

    if cls is Host:
        builder = HOST_BUILDERS.get(doc.get("name"))
        if builder is None:
            raise ParseError(f"unknown host functional {doc.get('name')!r}")
        node = builder(doc)
    else:
        args = []
        for name, kind in node_fields(cls):
            if kind is object:
                args.append(morphism_from_doc(doc[_DOC_KEY.get(name, name)]))
            elif kind is HomSpace:
                if dom is None and cls not in _DEFAULT_DOM:
                    raise ParseError(f"{op} node needs a 'dom' space")
                args.append(dom if dom is not None else _DEFAULT_DOM[cls](space_of(args[0])))
            else:
                args.append(functional_from_doc(doc[name], dom))
                if cls is Seq:  # the second stage runs on what the first returns
                    dom = args[-1].cod
        node = cls(*args)

    return node if inner is None else Seq(inner, node)


def loads_functional(text: str) -> FunctionalExpr:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return functional_from_doc(doc)


def dumps_functional(phi: FunctionalExpr) -> str:
    return json.dumps(functional_to_doc(phi), sort_keys=True)
