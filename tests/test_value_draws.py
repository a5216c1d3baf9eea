"""The value draws of ``roundtrip`` look their numerals up in one table, and
draw exactly what the loops that built every term draw: the same object,
from the same calls on the random stream."""
from random import Random

import pytest

from revcat.revlang.denote import numerals, random_nat_list, random_peano_pair, random_value
from revcat.revlang.syntax import S, Z

from oracles import (
    reference_numeral,
    reference_random_nat_list,
    reference_random_peano_pair,
    reference_random_value,
)

LIMITS = [1, 6, 12, 24, 30]
DRAWS_PER_SEED = 5


def _pairs(limit):
    """(table-driven draw, reference draw) for each generator at ``limit``."""
    return [
        (lambda rng: random_peano_pair(rng, limit), lambda rng: reference_random_peano_pair(rng, limit)),
        (lambda rng: random_nat_list(rng, limit=limit), lambda rng: reference_random_nat_list(rng, limit=limit)),
        *(
            (lambda rng, a=atoms: random_value(rng, limit, a),
             lambda rng, a=atoms: reference_random_value(rng, limit, a))
            for atoms in ((), ("a", "b"), ("b", "a"))
        ),
    ]


@pytest.mark.parametrize("limit", LIMITS)
def test_each_draw_is_the_reference_draw_on_the_same_stream(limit):
    for draw, reference in _pairs(limit):
        for seed in range(200):
            rng, ref_rng = Random(seed), Random(seed)
            for _ in range(DRAWS_PER_SEED):
                got, expected = draw(rng), reference(ref_rng)
                assert got is expected, (limit, seed)
                assert rng.getstate() == ref_rng.getstate(), (limit, seed)


def test_the_numeral_table_holds_the_interned_numerals():
    assert numerals(0)[0] is Z()
    table = numerals(40)
    assert len(table) >= 40
    assert all(table[n] is reference_numeral(n) for n in range(40))
    # Asking for fewer keeps the larger table; asking for more grows it.
    assert numerals(3) is table
    assert numerals(41)[40] is S(table[39])

