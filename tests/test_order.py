import pytest

from revcat.cat.dstoch import StochMorphism
from revcat.cat.objects import FinObject
from revcat.cat.ops import HomSpace
from revcat.cat.rel import RelMorphism
from revcat.errors import DomainMismatch, InvalidArgument, NonConvergence
from revcat.order import FixPolicy, kleene_fix, kleene_pfix

from checkers import check_park_induction, spot_check_monotone
from oracles import complement, geometric_fixed_point, iterate_param_step, reachability_closure

X3 = FinObject(3)
R_EDGES = [(0, 1), (1, 2)]
R = RelMorphism.from_pairs(X3, X3, R_EDGES)
REL_DOM = HomSpace("rel", X3, X3)


def closure_step(current):
    return R.join(R.compose(current))


def test_kleene_fix_reachability_matches_bfs_oracle():
    expected = reachability_closure(R_EDGES, 3)
    assert expected == {(0, 1), (1, 2), (0, 2)}  # frozen from the oracle
    result = kleene_fix(closure_step, REL_DOM, FixPolicy())
    assert set(result.value.pairs) == expected
    assert result.iterations <= 3
    assert closure_step(result.value) == result.value  # genuinely a fixed point


def test_kleene_fix_identity_step_returns_bottom_in_one_iteration():
    result = kleene_fix(lambda r: r, REL_DOM, FixPolicy())
    assert result.value == REL_DOM.bottom
    assert result.iterations == 1


def test_kleene_fix_affine_metric_matches_closed_form():
    obj = FinObject(1)
    dom = HomSpace("dstoch", obj, obj)

    def step(a):
        return StochMorphism(obj, obj, [[0.25 + 0.5 * a.rows[0][0]]])

    result = kleene_fix(step, dom, FixPolicy(tolerance=1e-9))
    expected = geometric_fixed_point(0.25, 0.5)
    assert abs(result.value.rows[0][0] - expected) < 1e-9
    assert result.iterations <= 64
    assert result.residual is not None and result.residual < 1e-9


def test_kleene_fix_raises_non_convergence_on_oscillation():
    obj = FinObject(1)
    dom = HomSpace("dstoch", obj, obj)

    def step(a):
        return StochMorphism(obj, obj, [[1.0 - a.rows[0][0]]])

    with pytest.raises(NonConvergence):
        kleene_fix(step, dom, FixPolicy(max_iterations=50))


def test_kleene_fix_detects_domain_escape():
    other = RelMorphism.bottom(FinObject(2), FinObject(2))
    with pytest.raises(DomainMismatch):
        kleene_fix(lambda r: other, REL_DOM, FixPolicy())


def test_policy_validation():
    with pytest.raises(ValueError):
        FixPolicy(max_iterations=0)
    for tolerance in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            FixPolicy(tolerance=tolerance)


def test_kleene_pfix_constant_in_first_argument():
    p = RelMorphism.from_pairs(X3, X3, [(2, 0)])
    result = kleene_pfix(lambda x, q: q, p, REL_DOM, FixPolicy())
    assert result.value == p
    assert result.iterations <= 2


def test_kleene_pfix_matches_iteration_oracle():
    r_prime = RelMorphism.from_pairs(X3, X3, [(1, 2)])
    p = RelMorphism.from_pairs(X3, X3, [(0, 1)])

    def step(x, q):
        return q.join(r_prime.compose(x))

    expected = iterate_param_step(
        lambda cur, param: param | {(a, c) for (a, b) in cur for (b2, c) in [(1, 2)] if b == b2},
        frozenset({(0, 1)}),
        8,
    )
    assert expected == frozenset({(0, 1), (0, 2)})  # frozen from the oracle
    result = kleene_pfix(step, p, REL_DOM, FixPolicy())
    assert frozenset(result.value.pairs) == expected


def test_kleene_pfix_identity_step_gives_bottom():
    p = RelMorphism.from_pairs(X3, X3, [(0, 1)])
    result = kleene_pfix(lambda x, q: x, p, REL_DOM, FixPolicy())
    assert result.value == REL_DOM.bottom


def test_pfix_with_ignored_parameter_equals_fix():
    for p in REL_DOM.morphisms()[:10]:
        via_pfix = kleene_pfix(lambda x, q: closure_step(x), p, REL_DOM, FixPolicy())
        via_fix = kleene_fix(closure_step, REL_DOM, FixPolicy())
        assert via_pfix.value == via_fix.value


def test_kleene_chain_is_ascending_and_result_is_least_fixed_point():
    iterates = []

    def recording_step(r):
        iterates.append(r)
        return closure_step(r)

    result = kleene_fix(recording_step, REL_DOM, FixPolicy())
    for earlier, later in zip(iterates, iterates[1:]):
        assert earlier.leq(later)
    # least among all enumerated fixed points
    value = result.value
    for candidate in REL_DOM.morphisms():
        if closure_step(candidate) == candidate:
            assert value.leq(candidate)


@pytest.mark.parametrize("category", ["rel", "pinj"])
def test_random_fixed_points_lie_below_every_prefixed_point(category):
    report = check_park_induction(category, seeds=range(1, 11))
    assert report.passed, report.violations[:3]
    assert report.checked > 100


def test_exact_mode_converges_within_hom_size():
    small = FinObject(2)
    dom = HomSpace("rel", small, small)
    k = len(dom.morphisms())
    extra = RelMorphism.from_pairs(small, small, [(0, 0), (1, 1)])
    result = kleene_fix(lambda r: r.join(extra), dom, FixPolicy())
    assert result.iterations <= k


def test_hom_domain_order_axioms_on_enumerated_triples():
    small = FinObject(2)
    dom = HomSpace("rel", small, FinObject(1))
    elements = dom.morphisms()
    for f in elements:
        assert f.leq(f)
        assert dom.bottom.leq(f)
        for g in elements:
            if f.leq(g) and g.leq(f):
                assert f == g
            for h in elements:
                if f.leq(g) and g.leq(h):
                    assert f.leq(h)
    constant = elements[-1]
    assert RelMorphism.sup([constant, constant, constant]) == constant


def test_spot_check_monotone_composition_is_clean_and_complement_is_not():
    small = FinObject(2)
    elements = HomSpace("rel", small, small).morphisms()
    pairs = [(f, g) for f in elements for g in elements if f.leq(g)]
    r = RelMorphism.from_pairs(small, small, [(0, 1)])

    report = spot_check_monotone(lambda m: r.compose(m), pairs)
    assert report.passed and report.checked == len(pairs)

    report = spot_check_monotone(lambda m: m, pairs)
    assert report.passed

    report = spot_check_monotone(complement, pairs)
    assert not report.passed

    with pytest.raises(ValueError):
        spot_check_monotone(lambda m: m, [(elements[-1], elements[0])])
