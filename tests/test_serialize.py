import json

import pytest

from revcat.cat.dstoch import StochMorphism
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.cat.serialize import loads_morphism, morphism_from_doc
from revcat.errors import ParseError, RevcatError
from revcat.functionals.expr import FunctionalExpr, JoinWith, PostCompose, Seq, apply_functional, loads_functional
from revcat.functionals.expr import _DOC_KEY, _takes_inner, node_fields


# The writer of functional documents, which only these round trips read back.
_TO_DOC = {
    object: lambda m: m.to_doc(),
    HomSpace: lambda space: {"cat": space.category, "src": space.src.size, "dst": space.dst.size},
    FunctionalExpr: lambda phi: functional_to_doc(phi),
}


def functional_to_doc(phi: FunctionalExpr) -> dict:
    doc = {"op": phi.op}
    for name, kind in node_fields(type(phi)):
        doc[_DOC_KEY.get(name, name)] = _TO_DOC[kind](getattr(phi, name))
    # A later stage takes the leading one as "inner" only if it has no
    # sub-expressions: a nested Seq's document may already hold an "inner".
    if isinstance(phi, Seq) and _takes_inner(type(phi.second)):
        return {**doc["second"], "inner": doc["first"]}
    return doc


def dumps_functional(phi: FunctionalExpr) -> str:
    return json.dumps(functional_to_doc(phi), sort_keys=True)


def test_rel_document_roundtrip():
    doc = '{"type":"rel","src":3,"dst":3,"pairs":[[0,1],[1,2]]}'
    m = loads_morphism(doc)
    assert isinstance(m, RelMorphism)
    assert set(m.pairs) == {(0, 1), (1, 2)}
    assert loads_morphism(json.dumps(m.to_doc())) == m


def test_pinj_document_roundtrip():
    doc = '{"type":"pinj","src":3,"dst":3,"map":{"0":2,"1":0}}'
    m = loads_morphism(doc)
    assert isinstance(m, PInjMorphism)
    assert m.mapping == {0: 2, 1: 0}
    assert loads_morphism(json.dumps(m.to_doc())) == m


def test_dstoch_document_roundtrip():
    doc = '{"type":"dstoch","n":2,"rows":[[0.5,0.25],[0.25,0.5]]}'
    m = loads_morphism(doc)
    assert isinstance(m, StochMorphism)
    assert loads_morphism(json.dumps(m.to_doc())) == m


@pytest.mark.parametrize(
    "bad",
    [
        '{"type":"rel","src":3,"dst":3,"pairs":[[0,1]],"extra":1}',
        '{"type":"rel","src":3,"pairs":[[0,1]]}',
        '{"type":"wat","src":1,"dst":1}',
        '{"src":1,"dst":1}',
        "not json",
        '{"type":"pinj","src":2,"dst":2,"map":{"0":0,"1":0}}',
    ],
)
def test_bad_morphism_documents_rejected(bad):
    with pytest.raises(RevcatError):
        loads_morphism(bad)


def test_functional_document_with_inner_pipeline():
    text = (
        '{"op":"joinwith","m":{"type":"rel","src":3,"dst":3,"pairs":[[0,1],[1,2]]},'
        '"inner":{"op":"postcompose","m":{"type":"rel","src":3,"dst":3,"pairs":[[0,1],[1,2]]}}}'
    )
    phi = loads_functional(text)
    assert isinstance(phi, Seq)
    assert isinstance(phi.first, PostCompose)
    assert isinstance(phi.second, JoinWith)
    assert phi.dom == phi.cod

    x = FinObject(3)
    h = RelMorphism.from_pairs(x, x, [(2, 0)])
    expected_pairs = {(0, 1), (1, 2), (2, 1)}  # r join (h then r)
    assert set(apply_functional(phi, h).pairs) == expected_pairs

    again = loads_functional(dumps_functional(phi))
    assert apply_functional(again, h) == apply_functional(phi, h)


def test_functional_document_errors():
    with pytest.raises(ParseError):
        loads_functional('{"op":"nope"}')
    with pytest.raises(ParseError):
        loads_functional('{"op":"identity"}')  # no dom anywhere
    with pytest.raises(ParseError):
        loads_functional('{"op":"joinwith","m":{"type":"rel","src":1,"dst":1,"pairs":[]},"bogus":3}')
    with pytest.raises(ParseError):
        loads_functional('{"op":"host","name":"unknown-host"}')


from revcat.functionals.expr import Const, DaggerFn, IdentityFn, JoinOf, PreCompose  # noqa: E402

TWO = FinObject(2)
S2 = HomSpace("rel", TWO, TWO)
R2 = RelMorphism.from_pairs(TWO, TWO, [(0, 1)])
T2 = RelMorphism.from_pairs(TWO, TWO, [(1, 0)])
# A unary stage after a Seq whose own document already holds an "inner".
NESTED = Seq(PostCompose(R2, S2), Seq(PreCompose(T2, S2), JoinWith(R2)))


@pytest.mark.parametrize(
    "phi",
    [
        pytest.param(Const(R2, S2), id="const"),
        pytest.param(IdentityFn(S2), id="identity"),
        pytest.param(PreCompose(T2, S2), id="precompose"),
        pytest.param(PostCompose(R2, S2), id="postcompose"),
        pytest.param(DaggerFn(S2), id="dagger"),
        pytest.param(JoinWith(R2), id="joinwith"),
        pytest.param(Seq(PostCompose(R2, S2), JoinWith(R2)), id="inner"),
        pytest.param(Seq(IdentityFn(S2), JoinOf(IdentityFn(S2), Const(T2, S2))), id="seq"),
        pytest.param(JoinOf(PreCompose(T2, S2), DaggerFn(S2)), id="joinof"),
        pytest.param(NESTED, id="nested-seq"),
    ],
)
def test_functional_documents_round_trip_every_op(phi):
    again = loads_functional(dumps_functional(phi))
    assert again == phi
    for h in S2.morphisms():
        assert apply_functional(again, h) == apply_functional(phi, h)


def test_nested_seq_keeps_both_leading_stages():
    h = RelMorphism.from_pairs(TWO, TWO, [(1, 0)])
    assert set(apply_functional(NESTED, h).pairs) == {(0, 1)}
    assert set(apply_functional(loads_functional(dumps_functional(NESTED)), h).pairs) == {(0, 1)}
