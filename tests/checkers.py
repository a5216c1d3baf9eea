"""Law checkers that no revcat command runs; the tests call them directly.

Each returns a LawReport like the suites in ``revcat``, so a test can
assert both that a law holds and, on broken input, that it is caught.
``evaluate`` runs one function reference as ``revcat run`` does.
"""
from functools import cache
from itertools import product
from random import Random

from revcat.cat.dstoch import StochMorphism
from revcat.cat.objects import ENUMERATION_CAP, FinObject
from revcat.cat.ops import HomSpace, identity
from revcat.cat.pinj import PInjMorphism
from revcat.cat.rel import RelMorphism
from revcat.errors import DimensionMismatch, IncompatibleJoin
from revcat.functionals.expr import (
    DaggerFn,
    FunctionalExpr,
    IdentityFn,
    JoinOf,
    Param,
    PostCompose,
    PreCompose,
    Seq,
    conj,
    map_fields,
    node_fields,
)
from revcat.functionals.fixpoints import (
    fix_functional,
    pfix_functional,
    random_endo_functional,
    random_param_functional,
)
from revcat.functionals.functors import DisjointUnionWith, IdentityFunctor
from revcat.functionals.naturality import NaturalFamily
from revcat.functionals.param import ParamExpr, conj_param
from revcat.functionals.trace import trace
from revcat.order import kleene_fix
from revcat.report import Checker, LawReport
from revcat.revlang.denote import random_value
from revcat.revlang.interp import UNDEFINED, Evaluator, closed_ref
from revcat.revlang.parser import parse_callref_text
from revcat.revlang.validate import require_valid

from oracles import ReferenceEvaluator, join_graphs


def evaluate(program, fname: str, bindings: dict, value, fuel: int):
    """Run the reference ``fname`` (such as ``add~`` or ``map<inc>``) on
    ``value`` as ``revcat run`` does: bound and checked by ``closed_ref``,
    then one ``Evaluator.call``."""
    ref = closed_ref(program, parse_callref_text(fname), bindings)
    return Evaluator(program).call(ref, value, fuel)


def check_dagger_functor(functor, category: str, sizes=(0, 1, 2)) -> LawReport:
    """F(f+) = F(f)+ over every enumerated test morphism."""
    checker = Checker("dagger-functor")
    for x in sizes:
        for y in sizes:
            space = HomSpace(category, FinObject(x), FinObject(y))
            for f in space.morphisms():
                checker.check(
                    "functor-preserves-dagger",
                    functor.apply_mor(f.dagger()) == functor.apply_mor(f).dagger(),
                    "F={0!r} f={1!r}",
                    functor, f,
                )
    return checker.done()


def check_functors(family: NaturalFamily, sizes=(0, 1, 2)) -> LawReport:
    """Both functors of a family commute with the dagger."""
    report = check_dagger_functor(family.F, family.category, sizes)
    return report.merge(check_dagger_functor(family.G, family.category, sizes))


def postcompose_family(category: str, c) -> NaturalFamily:
    """One-argument alpha(f) = c . f on endo hom-sets; self-conjugate only
    when c is hermitian, so a non-hermitian c witnesses a violation."""
    ident = IdentityFunctor()

    def component(x: FinObject, y: FinObject):
        return PostCompose(c, HomSpace(category, x, y))

    return NaturalFamily("postcompose", category, ident, ident, component)


def mixed_family() -> NaturalFamily:
    """Join on the square components, projection elsewhere: transport
    between the two shapes cannot commute, so the family is not natural."""

    def component(x: FinObject, y: FinObject):
        space = HomSpace("rel", x, y)
        if x.size == y.size == 2:
            return ParamExpr(JoinOf(IdentityFn(space), Param(space, space)), space)
        return ParamExpr(Param(space, space), space)

    return NaturalFamily("mixed", "rel", IdentityFunctor(), IdentityFunctor(), component)


def restricted_join_family() -> NaturalFamily:
    """alpha(h, p) = h v i+ . p . i on rel, where p lies in Hom(x + 1, y + 1)
    and i includes each object in its sum with 1: a natural family whose
    parameters are not its arguments."""
    padded = DisjointUnionWith(FinObject(1))

    def inclusion(obj: FinObject):
        return RelMorphism.from_pairs(obj, padded.apply_obj(obj), [(k, k) for k in range(obj.size)])

    def component(x: FinObject, y: FinObject):
        space = HomSpace("rel", x, y)
        pspace = HomSpace("rel", padded.apply_obj(x), padded.apply_obj(y))
        restrict = Seq(
            PreCompose(inclusion(x), pspace),
            PostCompose(inclusion(y).dagger(), HomSpace("rel", x, padded.apply_obj(y))),
        )
        return ParamExpr(JoinOf(IdentityFn(space), Seq(Param(space, pspace), restrict)), pspace)

    return NaturalFamily("restricted-join", "rel", IdentityFunctor(), padded, component)


def check_fix_pfix_agreement(
    phi,
    param_space: HomSpace,
    parameters=None,
    tolerance: float = 1e-9,
) -> LawReport:
    """The two derivations between fix and pfix agree.

    Viewing an endo-functional as parametrized-but-ignoring-its-parameter,
    its parametrized fixed point at any parameter is the plain fixed point.
    """
    checker = Checker("fix-pfix-derivations")
    lifted = ParamExpr(phi, param_space)
    try:
        fixed = fix_functional(phi).value
    except IncompatibleJoin:
        checker.skip()
        return checker.done()
    for p in param_space.morphisms() if parameters is None else list(parameters):
        try:
            v = pfix_functional(lifted, p)
        except IncompatibleJoin:
            checker.skip()
            continue
        checker.check(
            "pfix-from-fix",
            v.isclose(fixed, tolerance),
            "p={0!r} pfix={1!r} fix={2!r}",
            p, v, fixed,
        )
    return checker.done()


def check_park_induction(category: str, seeds=range(1, 11), sizes=(0, 1, 2)) -> LawReport:
    """Park induction: every h with phi(h) <= h lies above fix phi.

    One seeded ``random_endo_functional`` per seed and hom-set Hom(x, y) of
    the given sizes, each checked against every morphism of its hom-set.  A
    join that is undefined, in the fixed point or in phi(h), is a skip."""
    checker = Checker("park-induction")
    for seed in seeds:
        rng = Random(seed)
        for x, y in product(sizes, repeat=2):
            space = HomSpace(category, FinObject(x), FinObject(y))
            phi = random_endo_functional(space, rng)
            try:
                least = fix_functional(phi).value
            except IncompatibleJoin:
                checker.skip()
                continue
            for h in space.morphisms():
                try:
                    prefixed = phi.apply(h).leq(h)
                except IncompatibleJoin:
                    checker.skip()
                    continue
                if prefixed:
                    checker.check(
                        "park-induction",
                        least.leq(h),
                        "phi={0!r} h={1!r} fix={2!r}",
                        phi, h, least,
                    )
    return checker.done()


def check_dinaturality(category: str, seeds=range(1, 11), sizes=(0, 1, 2, 3)) -> LawReport:
    """Dinaturality: fix(psi . phi) = psi(fix(phi . psi)) for phi: A -> B and
    psi: B -> A, and the same for conj(phi) and conj(psi).

    Per seed and hom-set A = Hom(x, y) of the given sizes, with B = Hom(y, x),
    phi is a seeded ``random_endo_functional`` on A followed by the dagger,
    and psi one on B followed by the dagger.  A join that is undefined on
    either side is a skip."""
    checker = Checker("dinaturality")
    for seed in seeds:
        rng = Random(seed)
        for x, y in product(sizes, repeat=2):
            a = HomSpace(category, FinObject(x), FinObject(y))
            b = a.flipped()
            phi = Seq(random_endo_functional(a, rng), DaggerFn(a))
            psi = Seq(random_endo_functional(b, rng), DaggerFn(b))
            for law, f, g in (("dinaturality", phi, psi), ("dinaturality-conj", conj(phi), conj(psi))):
                try:
                    lhs = fix_functional(Seq(f, g)).value
                    rhs = g.apply(fix_functional(Seq(g, f)).value)
                except IncompatibleJoin:
                    checker.skip()
                    continue
                checker.check(law, lhs == rhs, "phi={0!r} psi={1!r} lhs={2!r} rhs={3!r}", f, g, lhs, rhs)
    return checker.done()


def diagonal(phi: FunctionalExpr) -> FunctionalExpr:
    """``phi`` with every Param leaf replaced by the identity, so that the
    parameter reads the argument: h |-> psi(h, h) for psi's body ``phi``."""
    if type(phi) is Param:
        return IdentityFn(phi.dom)
    return type(phi)(*(
        diagonal(getattr(phi, name)) if kind is FunctionalExpr else getattr(phi, name)
        for name, kind in node_fields(type(phi))
    ))


def check_diagonal(category: str, seeds=range(1, 11), sizes=(0, 1, 2, 3)) -> LawReport:
    """The diagonal identity: fix(h |-> psi(h, h)) = fix(p |-> pfix(psi)(p)),
    and the same for conj_param(psi).

    Per seed and hom-set Hom(x, y) of the given sizes, psi is a seeded
    ``random_param_functional`` whose parameter space is its argument space.
    A join that is undefined on either side is a skip."""
    checker = Checker("diagonal")
    for seed in seeds:
        rng = Random(seed)
        for x, y in product(sizes, repeat=2):
            space = HomSpace(category, FinObject(x), FinObject(y))
            psi = random_param_functional(space, space, rng)
            for law, chi in (("diagonal", psi), ("diagonal-conj", conj_param(psi))):
                try:
                    lhs = fix_functional(diagonal(chi.body)).value
                    rhs = kleene_fix(lambda p: pfix_functional(chi, p), chi.param_space).value
                except IncompatibleJoin:
                    checker.skip()
                    continue
                checker.check(law, lhs == rhs, "psi={0!r} lhs={1!r} rhs={2!r}", chi, lhs, rhs)
    return checker.done()


def check_pinj_join(join, size: int = 3) -> LawReport:
    """``join`` on every pair of pinj Hom(size, size) is the union of the two
    graphs, refused with IncompatibleJoin exactly where ``join_graphs`` has
    none; a result must pass the validating constructor."""
    checker = Checker("pinj-join")
    obj = FinObject(size)
    for f, g in product(HomSpace("pinj", obj, obj).morphisms(), repeat=2):
        expected = join_graphs(f.mapping, g.mapping)
        try:
            joined = join(f, g)
        except IncompatibleJoin:
            checker.check("join-refused", expected is None, "f={0!r} g={1!r}", f, g)
            continue
        try:
            valid = type(joined)(joined.src, joined.dst, joined.table) == joined
        except DimensionMismatch:
            valid = False
        checker.check(
            "join-graph-union",
            valid and joined.mapping == expected,
            "f={0!r} g={1!r} join={2!r}", f, g, joined,
        )
    return checker.done()


def random_pinj(rng: Random, n: int, defined: float = 0.8) -> PInjMorphism:
    """A seeded partial injection on ``FinObject(n)``: a random permutation,
    kept at each point with probability ``defined``."""
    targets = rng.sample(range(n), n)
    table = tuple(j if rng.random() < defined else None for j in targets)
    return PInjMorphism(FinObject(n), FinObject(n), table)


def random_rel(rng: Random, n: int, m: int) -> RelMorphism:
    """A seeded relation, built fresh by the public constructor: each row
    sparse, dense or drawn whole."""
    mask = (1 << m) - 1
    rows = []
    for _ in range(n):
        kind, sparse = rng.randrange(3), 0
        for _ in range(3 if m else 0):
            sparse |= 1 << rng.randrange(m)
        rows.append((sparse, mask ^ sparse, rng.getrandbits(m))[kind])
    return RelMorphism(FinObject(n), FinObject(m), tuple(rows))


def split_pinj(rng: Random, h: PInjMorphism) -> tuple[PInjMorphism, PInjMorphism]:
    """Two parts of ``h`` whose join is ``h``: each point of its graph goes to
    the first part, the second or both."""
    sides = [rng.randrange(3) for _ in h.table]
    first = tuple(j if side != 1 else None for j, side in zip(h.table, sides))
    second = tuple(j if side != 0 else None for j, side in zip(h.table, sides))
    return PInjMorphism(h.src, h.dst, first), PInjMorphism(h.src, h.dst, second)


def check_pinj_in_rel(sizes=(5, 17, 64, 128), draws: int = 200, seed: int = 1) -> LawReport:
    """``compose``, ``dagger``, ``leq`` and ``join`` of seeded partial
    injections past the enumerated sizes commute with ``to_rel``.  A join
    that pinj refuses must be a relation that is not a partial injection.
    Each draw is a whole ``h`` split into two parts, for joins that are
    defined and comparisons that hold, and an independent ``g``."""
    checker = Checker("pinj-in-rel")
    rng = Random(seed)
    for n in sizes:
        for _ in range(draws):
            f, g = random_pinj(rng, n), random_pinj(rng, n)
            part, rest = split_pinj(rng, f)
            checker.check("compose", g.compose(f).to_rel() == g.to_rel().compose(f.to_rel()),
                          "f={0!r} g={1!r}", f, g)
            checker.check("dagger", f.dagger().to_rel() == f.to_rel().dagger(), "f={0!r}", f)
            for a, b in ((part, f), (f, part), (f, g)):
                checker.check("leq", a.leq(b) == a.to_rel().leq(b.to_rel()), "f={0!r} g={1!r}", a, b)
            for a, b in ((part, rest), (f, g)):
                joined = a.to_rel().join(b.to_rel())
                try:
                    ok = a.join(b).to_rel() == joined
                except IncompatibleJoin:
                    try:
                        PInjMorphism.from_rel(joined)
                    except DimensionMismatch:
                        ok = True
                    else:
                        ok = False
                checker.check("join", ok, "f={0!r} g={1!r}", a, b)
    return checker.done()


def to_stoch(f: PInjMorphism) -> StochMorphism:
    """The square partial injection ``f`` as its 0/1 matrix.  It is built
    unchecked; ``check_pinj_in_dstoch`` passes one embedding per draw
    through the validating constructor."""
    zeros, units = _unit_rows(f.dst.size)
    return StochMorphism._make(f.src, f.dst, tuple(zeros if j is None else units[j] for j in f.table))


@cache
def _unit_rows(n: int):
    """The zero row of width ``n``, and the unit row at each index."""
    return (0.0,) * n, [tuple(float(j == k) for k in range(n)) for j in range(n)]


def ascending_chain(rng: Random, h: PInjMorphism, length: int = 4) -> list[PInjMorphism]:
    """``length`` restrictions of ``h``, each below the next, the last ``h``."""
    points = [i for i, j in enumerate(h.table) if j is not None]
    rng.shuffle(points)
    cuts = sorted(rng.randrange(len(points) + 1) for _ in range(length - 1))
    chain = []
    for cut in cuts + [len(points)]:
        kept = set(points[:cut])
        chain.append(PInjMorphism(h.src, h.dst, tuple(j if i in kept else None for i, j in enumerate(h.table))))
    return chain


def check_pinj_in_dstoch(draws=None, seed: int = 1) -> LawReport:
    """Identity, bottom, ``compose``, ``dagger`` and ``leq`` of seeded square
    partial injections commute exactly with the embedding into dstoch as
    valid 0/1 matrices, and sups of ascending chains commute with both
    embeddings: into dstoch, where the sup is the entrywise max, and into
    rel.  ``draws`` maps each size to its number of draws."""
    checker = Checker("pinj-in-dstoch")
    rng = Random(seed)
    for n, count in (draws or {1: 200, 5: 200, 17: 200, 64: 50, 128: 10}).items():
        x = FinObject(n)
        checker.check("identity", to_stoch(PInjMorphism.identity(x)) == StochMorphism.identity(x), "n={0}", n)
        checker.check("bottom", to_stoch(PInjMorphism.bottom(x, x)) == StochMorphism.bottom(x, x), "n={0}", n)
        for _ in range(count):
            f, g = random_pinj(rng, n), random_pinj(rng, n)
            part, _ = split_pinj(rng, f)
            ef, eg, epart = to_stoch(f), to_stoch(g), to_stoch(part)
            checker.check("valid", StochMorphism(f.src, f.dst, ef.rows) == ef, "f={0!r}", f)
            checker.check("compose", to_stoch(g.compose(f)) == eg.compose(ef), "f={0!r} g={1!r}", f, g)
            checker.check("dagger", to_stoch(f.dagger()) == ef.dagger(), "f={0!r}", f)
            for a, b, ea, eb in ((part, f, epart, ef), (f, part, ef, epart), (f, g, ef, eg)):
                checker.check("leq", a.leq(b) == ea.leq(eb), "f={0!r} g={1!r}", a, b)
            chain = ascending_chain(rng, f)
            top = PInjMorphism.sup(chain)
            checker.check("sup-dstoch", to_stoch(top) == StochMorphism.sup([to_stoch(c) for c in chain]),
                          "chain={0!r}", chain)
            checker.check("sup-rel", top.to_rel() == RelMorphism.sup([c.to_rel() for c in chain]),
                          "chain={0!r}", chain)
    return checker.done()


def check_identity_compose(category: str, sizes=(0, 1, 2, 3, 16, 64, 128), draws: int = 200,
                           seed: int = 1) -> LawReport:
    """The identity laws of composition, id.f = f = f.id, on every morphism
    of each listable Hom(x, y) with x and y in ``sizes``, and on ``draws``
    seeded values of Hom(n, n) for each size n whose endo hom-set is not
    listable."""
    checker = Checker("identity-compose")
    cls = {"rel": RelMorphism, "pinj": PInjMorphism}[category]
    draw = {"rel": lambda rng, n: random_rel(rng, n, n), "pinj": random_pinj}[category]
    rng = Random(seed)
    listed = [
        f for x, y in product(sizes, repeat=2) if x * y <= ENUMERATION_CAP
        for f in HomSpace(category, FinObject(x), FinObject(y)).morphisms()
    ]
    drawn = [draw(rng, n) for n in sizes if n * n > ENUMERATION_CAP for _ in range(draws)]
    for f in listed + drawn:
        checker.check("identity-after", cls.identity(f.dst).compose(f) == f, "f={0!r}", f)
        checker.check("identity-before", f.compose(cls.identity(f.src)) == f, "f={0!r}", f)
    return checker.done()


# The embedding E of pinj into rel, on functional trees: each morphism by
# ``to_rel``, each space by the rel space on its objects.
_TO_REL = {
    object: lambda m: m.to_rel(),
    HomSpace: lambda space: HomSpace("rel", space.src, space.dst),
    FunctionalExpr: lambda phi: embed_in_rel(phi),
}


def embed_in_rel(phi: FunctionalExpr) -> FunctionalExpr:
    """E(phi): the pinj tree ``phi`` rebuilt on rel, node for node."""
    return map_fields(phi, _TO_REL)


def check_pinj_fix_in_rel(trees: int = 2000, sizes=(1, 2, 3), seed: int = 1) -> LawReport:
    """Least fixed points commute with the embedding into rel:
    E(fix phi) = fix(E phi) and E(fix(conj phi)) = fix(conj(E phi)), on
    ``trees`` seeded ``random_endo_functional`` trees on pinj Hom(x, y),
    x and y in ``sizes`` in turn.  A tree whose pinj chain meets an
    undefined join is a skip."""
    checker = Checker("pinj-fix-in-rel")
    rng = Random(seed)
    spaces = [HomSpace("pinj", FinObject(x), FinObject(y)) for x, y in product(sizes, repeat=2)]
    for i in range(trees):
        phi = random_endo_functional(spaces[i % len(spaces)], rng)
        on_rel = embed_in_rel(phi)
        for law, tree, rel_tree in (("fix", phi, on_rel), ("fix-conj", conj(phi), conj(on_rel))):
            try:
                least = fix_functional(tree).value.to_rel()
            except IncompatibleJoin:
                checker.skip()
                continue
            rel_least = fix_functional(rel_tree).value
            checker.check(law, least == rel_least, "phi={0!r} fix={1!r} rel={2!r}", tree, least, rel_least)
    return checker.done()


def spot_check_monotone(step, sample_pairs) -> LawReport:
    """Probe step for monotonicity on pairs already known to satisfy f <= g."""
    checker = Checker("monotone-spot-check")
    for f, g in sample_pairs:
        if not f.leq(g):
            raise ValueError("sample pair is not ordered: expected f <= g")
        checker.check(
            "monotonicity",
            step(f).leq(step(g)),
            "f={0!r} g={1!r}",
            f, g,
        )
    return checker.done()


def check_trace_sliding(category: str, x_size: int, y_size: int, u_size: int) -> LawReport:
    """Sliding: Tr_U((id_Y + s) . g) = Tr_U'(g . (id_X + s))
    for every g: X + U -> Y + U' and s: U' -> U, with |U'| = |U| - 1."""
    checker = Checker("trace-sliding")
    x, y, u = FinObject(x_size), FinObject(y_size), FinObject(u_size)
    up = FinObject(max(0, u_size - 1))
    g_space = HomSpace(category, FinObject(x_size + u_size), FinObject(y_size + up.size))
    s_space = HomSpace(category, up, u)
    for g in g_space.morphisms():
        for s in s_space.morphisms():
            lhs = trace(identity(category, y).block_sum(s).compose(g), x, y, u)
            rhs = trace(g.compose(identity(category, x).block_sum(s)), x, y, up)
            checker.check(
                "trace-sliding",
                lhs == rhs,
                "g={0!r} s={1!r}",
                g, s,
            )
    return checker.done()


def fuel_monotonicity_check(
    program,
    fname: str,
    bindings: dict,
    samples: int,
    max_fuel: int,
    seed: int,
    value_gen=None,
    value_bound: int = 12,
) -> LawReport:
    """Defined at fuel n implies defined with the same value at any higher fuel."""
    require_valid(program)
    checker = Checker("fuel-monotonicity")
    rng = Random(seed)
    gen = value_gen or (lambda r: random_value(r, value_bound, program.atoms))
    for _ in range(samples):
        v = gen(rng)
        low = rng.randrange(0, max_fuel)
        high = rng.randrange(low, max_fuel + 1)
        at_low = evaluate(program, fname, bindings, v, low)
        at_high = evaluate(program, fname, bindings, v, high)
        ok = at_low is UNDEFINED or at_low == at_high
        checker.check(
            "fuel-monotone",
            ok,
            "v={0!r} fuel {1}->{2}: {3!r} then {4!r}",
            v, low, high, at_low, at_high,
        )
    return checker.done()


def check_call_table(evaluator, ref, queries) -> LawReport:
    """One ``Evaluator`` answers ``queries``, ``(value, fuel)`` pairs asked in
    order, so that later answers may come from its call table; each answer
    must be what a fresh recursive ``ReferenceEvaluator`` gives at that fuel."""
    checker = Checker("call-table")
    for value, fuel in queries:
        got = evaluator.call(ref, value, fuel)
        want = ReferenceEvaluator(evaluator.program).call(ref, value, fuel)
        checker.check(
            "exact-at-every-fuel",
            got == want,
            "v={0!r} fuel={1}: {2!r}, want {3!r}",
            value, fuel, got, want,
        )
    return checker.done()
