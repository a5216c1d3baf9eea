"""A closed DSL of continuous hom-set functionals, plus conjugation.

Every node denotes a continuous map between two hom-sets and applies
itself.  A ``Param`` leaf reads a parameter that ``apply`` passes down the
tree, so one tree with such leaves is a two-argument functional
(``param.ParamExpr``).  Conjugation and documents are derived from the
node's fields: morphisms (declared ``object``), hom-spaces and
sub-expressions.  Conjugation is ``map_fields``, which rebuilds a node by
one rule per field kind; an opaque Host node's function is conjugated
extensionally, by wrapping it between daggers.  All agree pointwise with
h |-> phi(h+)+.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, ClassVar, get_type_hints

from ..cat.dstoch import StochMorphism, read_entry
from ..cat.objects import FinObject, read_nat
from ..cat.ops import CATEGORIES, DSTOCH, HomSpace
from ..cat.serialize import morphism_from_doc, read_json
from ..errors import DimensionMismatch, ParseError, UnboundParameter, UnsupportedOperation
from ..record import frozen
from .spaces import space_of


class FunctionalExpr:
    """Base class; every node exposes declared dom/cod hom-spaces, its
    document ``op`` and ``apply(h, p=None)`` for an ``h`` checked to lie in
    dom and the parameter ``p`` its Param leaves return."""

    op: ClassVar[str]


@frozen
class Const(FunctionalExpr):
    op: ClassVar[str] = "const"
    value: object
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return space_of(self.value)

    def apply(self, h, p=None):
        return self.value


@frozen
class IdentityFn(FunctionalExpr):
    op: ClassVar[str] = "identity"
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.dom

    def apply(self, h, p=None):
        return h


@frozen
class PreCompose(FunctionalExpr):
    """h |-> h . m, reindexing the source along m."""

    op: ClassVar[str] = "precompose"
    value: object
    dom: HomSpace

    def __post_init__(self):
        sp = space_of(self.value)
        if sp.category != self.dom.category or sp.dst is not self.dom.src:
            raise DimensionMismatch(f"precompose {sp!r} against domain {self.dom!r}")

    @property
    def cod(self) -> HomSpace:
        return HomSpace(self.dom.category, space_of(self.value).src, self.dom.dst)

    def apply(self, h, p=None):
        return h.compose(self.value)


@frozen
class PostCompose(FunctionalExpr):
    """h |-> m . h, reindexing the target along m."""

    op: ClassVar[str] = "postcompose"
    value: object
    dom: HomSpace

    def __post_init__(self):
        sp = space_of(self.value)
        if sp.category != self.dom.category or sp.src is not self.dom.dst:
            raise DimensionMismatch(f"postcompose {sp!r} against domain {self.dom!r}")

    @property
    def cod(self) -> HomSpace:
        return HomSpace(self.dom.category, self.dom.src, space_of(self.value).dst)

    def apply(self, h, p=None):
        return self.value.compose(h)


@frozen
class DaggerFn(FunctionalExpr):
    op: ClassVar[str] = "dagger"
    dom: HomSpace

    @property
    def cod(self) -> HomSpace:
        return self.dom.flipped()

    def apply(self, h, p=None):
        return h.dagger()


@frozen
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

    def apply(self, h, p=None):
        return h.join(self.value)


@frozen
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

    def apply(self, h, p=None):
        return self.second.apply(self.first.apply(h, p), p)


@frozen
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

    def apply(self, h, p=None):
        return self.left.apply(h, p).join(self.right.apply(h, p))


@frozen
class Host(FunctionalExpr):
    """Opaque host-language functional; not serializable."""

    op: ClassVar[str] = "host"
    fn: Callable
    dom: HomSpace
    cod: HomSpace
    name: str = "host"

    def apply(self, h, p=None):
        return self.fn(h)


@frozen
class Param(FunctionalExpr):
    """The parameter p of an enclosing ``ParamExpr``, whatever h is.

    No document names it: a one-argument functional has no parameter."""

    op: ClassVar[str] = "param"
    dom: HomSpace
    cod: HomSpace

    def apply(self, h, p=None):
        return p


def apply_functional(phi: FunctionalExpr, h):
    refuse_param_leaves(phi)
    if space_of(h) != phi.dom:
        raise DimensionMismatch(f"{h!r} is not in {phi.dom!r}")
    return phi.apply(h)


@cache
def node_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, declared type) of each field of a node class, read once."""
    hints = get_type_hints(cls)
    return tuple((name, hints[name]) for name in cls._fields)


def param_leaves(phi: FunctionalExpr) -> list:
    """The Param leaves of ``phi``, found on an explicit stack."""
    leaves, stack = [], [phi]
    while stack:
        node = stack.pop()
        if type(node) is Param:
            leaves.append(node)
        for name, kind in node_fields(type(node)):
            if kind is FunctionalExpr:
                stack.append(getattr(node, name))
    return leaves


def refuse_param_leaves(phi: FunctionalExpr) -> None:
    """Refuse ``phi`` as a one-argument functional if a Param leaf in it
    would read a parameter, which only a ``ParamExpr`` passes."""
    leaves = param_leaves(phi)
    if leaves:
        raise UnboundParameter(f"{leaves[0]!r} lies outside a ParamExpr, so no parameter is passed to it")


# Conjugation daggers each morphism, flips each space and conjugates each
# sub-expression (by the module-level name, which a tracer may wrap); a
# Param leaf needs nothing more than its two spaces flipped.  A Host's
# function is wrapped between daggers, h |-> fn(h+)+, and its name becomes
# conj(name).
_CONJ_RULES = {
    object: lambda m: m.dagger(),
    HomSpace: HomSpace.flipped,
    FunctionalExpr: lambda phi: conj(phi),
    Callable: lambda fn: lambda h: fn(h.dagger()).dagger(),
    str: lambda name: f"conj({name})",
}
# (h . m)+ = m+ . h+: conjugation trades pre- for post-composition.
_CONJ_CLASS = {PreCompose: PostCompose, PostCompose: PreCompose}


def map_fields(phi: FunctionalExpr, rules: dict, classes: dict | None = None) -> FunctionalExpr:
    """``phi`` rebuilt with each field mapped by ``rules[kind]``, the rule
    for the field's declared kind, as a node of ``phi``'s class or of the
    class that ``classes`` maps it to."""
    node_cls = type(phi)
    args = (rules[kind](getattr(phi, name)) for name, kind in node_fields(node_cls))
    return (classes.get(node_cls, node_cls) if classes else node_cls)(*args)


def conj(phi: FunctionalExpr) -> FunctionalExpr:
    """The conjugate functional, extensionally h |-> phi(h+)+."""
    return map_fields(phi, _CONJ_RULES, _CONJ_CLASS)


# -- documents --------------------------------------------------------------
# A document is {"op": op} plus one key per field ("m" for ``value``); a
# node without sub-expressions may take a leading stage as "inner".


def _space_from_doc(doc: dict) -> HomSpace:
    if not isinstance(doc, dict) or not {"cat", "src", "dst"} <= doc.keys():
        raise ParseError(f"a space must be an object with 'cat', 'src' and 'dst', got {doc!r}")
    if doc["cat"] not in CATEGORIES:
        raise ParseError(f"unknown category {doc['cat']!r} in the 'cat' field of a space")
    src, dst = (FinObject(read_nat(doc[key], key)) for key in ("src", "dst"))
    return HomSpace(doc["cat"], src, dst)


_DOC_KEY = {"value": "m"}


def _takes_inner(cls) -> bool:
    return all(kind is not FunctionalExpr for _, kind in node_fields(cls))


def _affine_host(doc: dict) -> Host:
    """Entrywise a |-> shift * I + scale * a on square stochastic matrices.

    ``shift`` and ``scale`` come from the document, so each step builds its
    result through the validating constructor.
    """
    n = read_nat(_field(doc, "n"), "n")
    scale = read_entry(_field(doc, "scale"), "scale")
    shift = read_entry(_field(doc, "shift"), "shift")
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

# A Param leaf reads the parameter of an enclosing ParamExpr, which no
# document builds.
_NODES = {cls.op: cls for cls in FunctionalExpr.__subclasses__() if cls is not Param}
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


def _field(doc: dict, key: str):
    """``doc[key]``, or a ParseError naming the field a node document lacks."""
    if key not in doc:
        raise ParseError(f"{doc['op']!r} node needs a {key!r} field")
    return doc[key]


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
                args.append(morphism_from_doc(_field(doc, _DOC_KEY.get(name, name))))
            elif kind is HomSpace:
                if dom is None and cls not in _DEFAULT_DOM:
                    raise ParseError(f"{op} node needs a 'dom' space")
                args.append(dom if dom is not None else _DEFAULT_DOM[cls](space_of(args[0])))
            else:
                args.append(functional_from_doc(_field(doc, name), dom))
                if cls is Seq:  # the second stage runs on what the first returns
                    dom = args[-1].cod
        node = cls(*args)

    return node if inner is None else Seq(inner, node)


def loads_functional(text: str) -> FunctionalExpr:
    return functional_from_doc(read_json(text))
