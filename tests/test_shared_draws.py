"""The pfix suites share one draw source: each drawn functional is built,
conjugated and iterated once for the three, and is dropped with its memo
once the run moves past it, without changing a report."""
import json
import weakref
from itertools import permutations

import pytest

from revcat import cli
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.pinj import PInjMorphism
from revcat.cli import REGISTRY, main
from revcat.errors import IncompatibleJoin
from revcat.functionals import fixpoints, param
from revcat.functionals.expr import JoinOf, JoinWith, Param
from revcat.functionals.fixpoints import pfix_functional
from revcat.functionals.param import ParamExpr, conj_param

PFIX_SUITES = ("pfix-adjoint", "conj-preservation", "pfix-identity")
RUN = ["laws", "--category", "pinj", "--max-size", "2", "--seed", "1", "--trials", "20"]


def _laws(capsys, argv, suites):
    code = main([*argv, *(a for s in suites for a in ("--suite", s)), "--format", "json"])
    assert code in (0, 1)
    return json.loads(capsys.readouterr().out)["suites"]


def test_the_pfix_suites_share_one_draw_source_and_no_other_suite_does():
    sources = {}
    for name, suite in REGISTRY.items():
        sources.setdefault(suite.draws, []).append(name)
    shared = [names for names in sources.values() if len(names) > 1]
    assert shared == [list(PFIX_SUITES)]


def test_each_functional_and_parameter_is_iterated_once(capsys, monkeypatch):
    kleene_pfix = fixpoints.kleene_pfix
    keys, bodies = [], []

    def spy(step, p, space, *rest):
        # Bodies stay alive here, so no id is reused within the run.
        bodies.append(step.__self__)
        keys.append((id(step.__self__), p))
        return kleene_pfix(step, p, space, *rest)

    monkeypatch.setattr(fixpoints, "kleene_pfix", spy)
    _laws(capsys, RUN, PFIX_SUITES)
    homs = len(HomSpace("pinj", FinObject(2), FinObject(2)).morphisms())
    assert homs == 7
    assert len(keys) == len(set(keys))
    # A drawn psi and its conjugate at each parameter; the unshared suites
    # iterate up to 5 * 7 chains per trial.
    assert len({key[0] for key in keys}) <= 2 * 20
    assert 20 * homs <= len(keys) <= 2 * 20 * homs


def test_pfix_identity_alone_builds_no_conjugate(capsys, monkeypatch):
    calls = []

    def spy(psi):
        calls.append(psi)
        return conj_param(psi)

    monkeypatch.setattr(fixpoints, "conj_param", spy)
    monkeypatch.setattr(param, "conj_param", spy)
    assert _laws(capsys, RUN, ["pfix-identity"])["pfix-identity"]["checked"] > 0
    assert calls == []
    # One build per drawn psi: the second suite that needs its conjugate
    # finds it in the memo without calling conj_param.
    _laws(capsys, RUN, PFIX_SUITES)
    assert len(calls) == 20
    assert len({id(psi) for psi in calls}) == 20


def test_a_draw_and_its_conjugate_go_once_the_run_moves_past_them(capsys, monkeypatch):
    drawn, conjugates = [], []
    draw = cli.random_param_functional

    def spy_draw(*args, **kwargs):
        # The last draw is still bound while the next one is made; every
        # earlier one must be gone, its memo and conjugate with it.
        assert all(ref() is None for ref in drawn[:-1] + conjugates[:-1])
        psi = draw(*args, **kwargs)
        drawn.append(weakref.ref(psi))
        return psi

    def spy_conj(psi):
        conjugate = conj_param(psi)
        if not conjugates or conjugates[-1]() is not conjugate:
            conjugates.append(weakref.ref(conjugate))
        return conjugate

    monkeypatch.setattr(cli, "random_param_functional", spy_draw)
    monkeypatch.setattr(fixpoints, "conj_param", spy_conj)
    _laws(capsys, RUN, PFIX_SUITES)
    assert len(drawn) == len(conjugates) == 20
    assert all(ref() is None for ref in drawn + conjugates)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_sharing_changes_no_entry_in_any_order(capsys, category, seed):
    argv = ["laws", "--category", category, "--seed", str(seed), "--trials", "20"]
    alone = {name: _laws(capsys, argv, [name])[name] for name in PFIX_SUITES}
    assert all(entry["checked"] > 0 for entry in alone.values())
    for order in permutations(PFIX_SUITES):
        entries = _laws(capsys, argv, order)
        assert list(entries) == sorted(order)
        assert entries == alone, order


def test_a_memoized_undefined_fixed_point_raises_afresh_each_time():
    # psi(h, p) = p v h v c in pinj Hom(1, 2) with c = {0: 1}: at p = {0: 0}
    # the first iterate is already an undefined join.
    one, two = FinObject(1), FinObject(2)
    space = HomSpace("pinj", one, two)
    psi = ParamExpr(JoinOf(Param(space, space), JoinWith(PInjMorphism.from_map(one, two, {0: 1}))), space)
    p = PInjMorphism.from_map(one, two, {0: 0})
    raised = []
    for _ in range(2):
        with pytest.raises(IncompatibleJoin) as info:
            pfix_functional(psi, p)
        raised.append(info.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])
    (kept,) = psi.fixed_points.values()
    assert not isinstance(kept, BaseException) and kept.__slots__ == ("message",)
