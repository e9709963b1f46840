import itertools
from fractions import Fraction

import pytest

from arealaw import ValidationError
from arealaw.errors import CombinatorialLimitError

from nc_combinatorics import (
    case_B,
    catalan,
    catalan_bound,
    compose,
    count_multichains,
    cycle_count,
    enumerate_nc,
    full_cycle,
    fuss_catalan,
    identity,
    inverse,
    is_geodesic,
    moment_from_B,
    mp_moment,
    narayana,
    refines,
    to_partition,
)

from conftest import black_hole, oxygen, single_loop


def kreweras_leq(a, b):
    """Order via geodesics: a <= b iff id -> a -> b -> gamma is a geodesic.

    An independent route to the refinement order that the library uses."""
    p = len(a)

    def length(x):
        return p - cycle_count(x)

    return (
        length(a)
        + length(compose(inverse(a), b))
        + length(compose(inverse(b), full_cycle(p)))
        == p - 1
    )


def test_enumerate_counts_match_catalan():
    for p in range(1, 7):
        assert len(enumerate_nc(p)) == catalan(p)


def test_enumerate_p1():
    assert enumerate_nc(1) == ((0,),)


def test_enumerate_p3_brute():
    # independent brute force over all of S_3
    geodesics = [
        perm for perm in itertools.permutations(range(3)) if is_geodesic(perm)
    ]
    assert len(geodesics) == 5
    assert enumerate_nc(3) == tuple(geodesics)


def test_enumeration_guard():
    with pytest.raises(CombinatorialLimitError):
        enumerate_nc(9)
    with pytest.raises(CombinatorialLimitError):
        enumerate_nc(0)


def test_enumeration_order_lexicographic():
    for p in (3, 4):
        elements = enumerate_nc(p)
        assert list(elements) == sorted(elements)


def test_geodesic_cycle_identities():
    for p in range(1, 6):
        assert cycle_count(identity(p)) == p
        assert cycle_count(full_cycle(p)) == 1
    assert to_partition((0, 2, 1)) == {frozenset({0}), frozenset({1, 2})}
    assert cycle_count((0, 2, 1)) == 2


def test_multichain_counts():
    assert count_multichains(2, 2) == 3
    assert count_multichains(3, 2) == 12
    for p in range(1, 7):
        assert count_multichains(p, 1) == catalan(p)


def test_multichains_match_fuss_catalan():
    # brute-force order counting validates the closed form
    for p in range(1, 7):
        for length in range(1, 4):
            assert count_multichains(p, length) == fuss_catalan(p, length)


def test_multichains_by_direct_product_enumeration():
    # cross-check the DP against raw tuple filtering for small sizes
    for p in (2, 3):
        elements = enumerate_nc(p)
        for length in (2, 3):
            count = sum(
                1 for chain in itertools.product(elements, repeat=length)
                if all(refines(a, b) for a, b in zip(chain, chain[1:]))
            )
            assert count == count_multichains(p, length)


def test_catalan_bound():
    assert catalan_bound(1, 5) == 1
    assert catalan_bound(3, 2) == 25
    for p in range(1, 7):
        assert len(case_B("black_hole", p)) == catalan(p) <= catalan_bound(p, 3)


def test_kreweras_agrees_with_refinement():
    for p in range(1, 7):
        for a in enumerate_nc(p):
            for b in enumerate_nc(p):
                assert kreweras_leq(a, b) == refines(a, b)


def test_narayana_sums_to_catalan():
    for p in range(1, 9):
        assert sum(narayana(p, k) for k in range(1, p + 1)) == catalan(p)


def test_case_B_shapes():
    assert len(case_B("black_hole", 2)) == 2
    middles = {tup[1] for tup in case_B("black_hole", 2)}
    assert middles == {identity(2), full_cycle(2)}
    for tup in case_B("oxygen", 2):
        assert tup[0] == tup[1]
    for case in ("single_loop", "black_hole", "oxygen"):
        assert len(case_B(case, 1)) == 1
    with pytest.raises(ValidationError):
        case_B("bowtie", 2)


def test_moment_p1_is_one():
    fixtures = {
        "single_loop": single_loop(s=1),
        "black_hole": black_hole(traced=[0, 1], d1=2, d2=3),
        "oxygen": oxygen(traced=[0, 1], d1=2, d2=3),
    }
    for case, marginal in fixtures.items():
        assert moment_from_B(case_B(case, 1), marginal, 1) == 1


def test_moment_all_unit_ratios_counts_B():
    for case, marginal in (
        ("black_hole", black_hole(traced=[0, 1])),
        ("oxygen", oxygen(traced=[0, 3])),
        ("single_loop", single_loop(s=1)),
    ):
        for p in range(1, 5):
            B = case_B(case, p)
            assert moment_from_B(B, marginal, p) == len(B)


def test_black_hole_case1_closed_form():
    d1, d2 = 1, 2
    m = black_hole(traced=[0, 1], d1=d1, d2=d2)
    for p in range(1, 7):
        coeff = moment_from_B(case_B("black_hole", p), m, p)
        ratio = Fraction(d1, d2) ** 2
        expected = Fraction(d1) ** (-2 * p) * d2 ** 2 * sum(
            ratio ** cycle_count(sigma) for sigma in enumerate_nc(p)
        )
        assert coeff == expected


def test_black_hole_case1_matches_mp_moments():
    d1, d2 = 2, 3
    m = black_hole(traced=[0, 1], d1=d1, d2=d2)
    for p in range(1, 7):
        coeff = moment_from_B(case_B("black_hole", p), m, p)
        rescaled = coeff * Fraction(d1) ** (2 * p) / d2 ** 2
        assert rescaled == mp_moment(Fraction(d1 * d1, d2 * d2), p)


def test_black_hole_case2_chain_count():
    d1, d2 = 2, 3
    m = black_hole(traced=[0, 2], d1=d1, d2=d2)
    for p in range(1, 7):
        coeff = moment_from_B(case_B("black_hole", p), m, p)
        assert coeff == catalan(p) * Fraction(d1 * d2) ** (1 - p)


def test_oxygen_matches_black_hole():
    d1, d2 = 2, 3
    for p in range(1, 6):
        bh1 = moment_from_B(case_B("black_hole", p),
                            black_hole(traced=[0, 1], d1=d1, d2=d2), p)
        ox1 = moment_from_B(case_B("oxygen", p),
                            oxygen(traced=[0, 1], d1=d1, d2=d2), p)
        assert bh1 == ox1
        bh2 = moment_from_B(case_B("black_hole", p),
                            black_hole(traced=[0, 2], d1=d1, d2=d2), p)
        ox2 = moment_from_B(case_B("oxygen", p),
                            oxygen(traced=[0, 3], d1=d1, d2=d2), p)
        assert bh2 == ox2


def test_moment_tuple_validation():
    m = black_hole(traced=[0, 1])
    with pytest.raises(ValidationError, match="arity"):
        moment_from_B([(identity(2), identity(2))], m, 2)
    with pytest.raises(ValidationError, match="permutation"):
        moment_from_B([((0, 0), identity(2), identity(2))], m, 2)
