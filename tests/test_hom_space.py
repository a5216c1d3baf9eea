"""HomSpace, the one hom-set type: interned, and enumerated once."""
from collections import Counter

import pytest

import revcat.cat.pinj
import revcat.cat.rel
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import RelMorphism
from revcat.cli import main
from revcat.errors import InvalidArgument, TooLarge, UnsupportedOperation

X2, X4 = FinObject(2), FinObject(4)


def test_one_space_per_triple():
    space = HomSpace("rel", X2, FinObject(2))
    assert space is HomSpace("rel", X2, X2)
    assert space.flipped() is space
    assert HomSpace("rel", X2, FinObject(1)).flipped() is HomSpace("rel", FinObject(1), X2)
    assert HomSpace("pinj", X2, X2) != space
    with pytest.raises(InvalidArgument):
        HomSpace("set", X2, X2)


def test_morphisms_are_one_tuple():
    space = HomSpace("pinj", X2, X2)
    homs = space.morphisms()
    assert isinstance(homs, tuple) and len(homs) == 7
    assert space.morphisms() is homs
    assert space.bottom in homs and all(space.contains(m) for m in homs)
    assert not space.contains(RelMorphism.identity(X2))


def test_a_failed_enumeration_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(UnsupportedOperation):
            HomSpace("dstoch", X2, X2).morphisms()
        with pytest.raises(TooLarge):
            HomSpace("rel", X4, X4).morphisms()
        with pytest.raises(TooLarge):
            HomSpace("pinj", X4, X4).morphisms()


def test_laws_enumerate_each_hom_set_once(monkeypatch, capsys):
    calls = Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(src, dst, *rest):
            calls[name, src, dst] += 1
            return original(src, dst, *rest)

        monkeypatch.setattr(module, name, counted)

    spy(revcat.cat.rel, "enumerate_rel")
    spy(revcat.cat.pinj, "enumerate_pinj")
    # An empty table, so that spaces built by earlier tests are not reused.
    # The constructor closes over the table, so it is cleared, then restored.
    saved = dict(HomSpace._interned)
    HomSpace._interned.clear()
    suites = ["fix-adjoint", "pfix-adjoint", "conj-preservation", "pfix-identity"]
    argv = ["laws", "--category", "pinj", "--max-size", "2", "--seed", "1", "--trials", "30"]
    try:
        assert main(argv + [arg for suite in suites for arg in ("--suite", suite)]) == 0
    finally:
        HomSpace._interned.clear()
        HomSpace._interned.update(saved)
    capsys.readouterr()
    assert calls and max(calls.values()) == 1
