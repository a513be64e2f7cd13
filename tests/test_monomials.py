import itertools
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from lsquare.monomials import (
    Monomial,
    MonomialIdeal,
    ParseError,
    VariableMismatch,
    VariableTable,
    format_ideal,
    format_monomial,
    lcm_lattice,
    minimalize,
    parse_generators,
    parse_ideal,
    parse_monomial,
    thermometer_codes,
)

from oracles import lcm_lattice_by_subsets, minimalize_pairwise

ABC = VariableTable(("a", "b", "c"))


def m(text, table=ABC):
    return parse_monomial(text, table)


# -- parsing ---------------------------------------------------------------


def test_parse_single_letter_mode():
    ideal, dropped = parse_ideal("abe,bc,cdf,ad")
    assert ideal.table.names == ("a", "b", "e", "c", "d", "f")
    assert ideal.q == 4
    assert not dropped


def test_parse_exponents_and_vars_flag():
    ideal, _ = parse_ideal("x^2,y^2,z^2,xy,xz,yz")
    assert ideal.q == 6
    assert ideal.gens[0].exponents == (2, 0, 0)
    other, _ = parse_ideal("y,x", names=["x", "y"])
    assert other.table.names == ("x", "y")
    assert other.gens[0].exponents == (0, 1)


def test_parse_starred_mode():
    ideal, _ = parse_ideal("x1*x2, x2*x5^2")
    assert ideal.table.names == ("x1", "x2", "x5")
    assert ideal.gens[1].exponents == (0, 1, 2)


def test_parse_duplicate_collapses_with_warning_info():
    ideal, dropped = parse_ideal("x*y, x*y")
    assert ideal.q == 1
    assert len(dropped) == 1


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_ideal("ab,c?d")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_ideal("")
    with pytest.raises(ParseError):
        parse_ideal("ab,,cd")
    with pytest.raises(ParseError):
        parse_ideal("x^,y")
    with pytest.raises(ParseError):
        parse_ideal("ab,z", names=["a", "b"])


def test_superscript_exponents_are_parse_errors():
    # "²" passes str.isdigit but not int(): both scanners must reject it as
    # they reject an empty exponent, with the same message and position
    for text, empty in (("x^²", "x^"), ("x*y^²", "x*y^"), ("ab^²c", "ab^")):
        with pytest.raises(ParseError) as err:
            parse_ideal(text)
        with pytest.raises(ParseError) as expected:
            parse_ideal(empty)
        assert str(err.value) == str(expected.value)
        assert "expected digits after '^'" in str(err.value)


def test_decimal_digits_of_any_script_are_exponents():
    ideal, _ = parse_ideal("x^\u0663,y")
    assert format_ideal(ideal) == "x^3,y"
    ideal, _ = parse_ideal("x*y^\u0663")
    assert ideal.gens[0].exponents == (1, 3)


def test_unit_ideal_rejected():
    with pytest.raises(ParseError):
        parse_ideal("a^0")


def test_format_round_trip():
    for text in ("abe,bc,cdf,ad", "x^2,y^2,z^2,xy,xz,yz", "x1*x2,x2*x5^2"):
        ideal, _ = parse_ideal(text)
        again, _ = parse_ideal(format_ideal(ideal), names=ideal.table.names)
        assert again == ideal


# -- arithmetic ------------------------------------------------------------


def test_divides_examples():
    assert m("abc").divides(m("abc"))
    assert not m("a^2").divides(m("abc"))
    # the running example's key divisibility: bc*ad divides abe*cdf
    ideal, _ = parse_ideal("abe,bc,cdf,ad")
    m1, m2, m3, m4 = ideal.gens
    assert (m2 * m4).divides(m1 * m3)


def test_divides_rejects_mixed_tables():
    other = VariableTable(("x", "y"))
    with pytest.raises(VariableMismatch):
        m("ab").divides(Monomial(other, (1, 0)))


def test_lcm_and_multiply():
    table = VariableTable(("x", "y", "z"))
    x, y, z = (parse_monomial(s, table) for s in ("x", "y", "z"))
    xy, xz = x * y, x * z
    assert xy.lcm(xz) == x * y * z  # exponentwise max, not product
    assert xy.lcm(xy) == xy
    assert (x * x).exponents == (2, 0, 0)
    assert m("abe", VariableTable(tuple("abce"))) * m(
        "bc", VariableTable(tuple("abce"))
    ) == parse_monomial("ab^2ce", VariableTable(tuple("abce")))


def test_lcm_of_disjoint_supports():
    table = VariableTable(tuple("abcdef"))
    assert parse_monomial("abe", table).lcm(parse_monomial("cdf", table)) == (
        parse_monomial("abcdef", table)
    )


def test_is_squarefree():
    assert m("abc").is_squarefree()
    assert not m("a^2").is_squarefree()
    assert ABC.one().is_squarefree()


# -- minimalization and powers ----------------------------------------------


def test_minimalize_simple():
    table = VariableTable(("x", "y"))
    x, y = Monomial(table, (1, 0)), Monomial(table, (0, 1))
    assert minimalize([x, x * y, y]) == [x, y]


def test_minimalize_preserves_order_and_first_duplicate():
    table = VariableTable(("x", "y"))
    x, y = Monomial(table, (1, 0)), Monomial(table, (0, 1))
    assert minimalize([y, x, y]) == [y, x]
    with pytest.raises(ValueError):
        minimalize([])


def test_minimalize_keeps_incomparable_generators_untouched():
    _, gens = parse_generators("abe,bc,cdf,ad")
    assert minimalize(gens) == gens


def test_minimalize_rejects_mixed_tables():
    a = Monomial(VariableTable(("x", "y")), (1, 0))
    b = Monomial(VariableTable(("x", "z")), (2, 0))
    with pytest.raises(VariableMismatch):
        minimalize([a, b])
    same = Monomial(VariableTable(("x", "y")), (2, 0))
    assert minimalize([same, a]) == [a]


def test_ideal_power_principal():
    ideal, _ = parse_ideal("ab")
    square = ideal.power(2)
    assert [g.exponents for g in square.gens] == [(2, 2)]
    with pytest.raises(ValueError):
        ideal.power(0)


def test_ideal_power_counts():
    from math import comb

    J, _ = parse_ideal("x,y,z,w")
    assert J.power(2).q == 10
    I, _ = parse_ideal("abe,bc,cdf,ad")
    assert I.power(2).q == 9
    for r in (1, 2, 3):
        assert I.power(r).q <= comb(I.q + r - 1, r)


def test_ideal_power_no_collapse_case():
    # (ab, bc, ad)^2 keeps all six pairwise products
    ideal, _ = parse_ideal("ab,bc,ad")
    square = ideal.power(2)
    expected = {"a^2b^2", "ab^2c", "a^2bd", "b^2c^2", "abcd", "a^2d^2"}
    assert {format_monomial(g) for g in square.gens} == expected


def test_an_ideal_made_from_a_list_is_minimalized_once(monkeypatch):
    # the constructor minimalizes, and MonomialIdeal.minimal only picks the
    # table, so each ideal built costs one minimalize call
    import lsquare.monomials as mono

    calls = []
    real = mono.minimalize
    monkeypatch.setattr(mono, "minimalize", lambda gens: calls.append(1) or real(gens))
    ideal, dropped = mono.parse_ideal("x,xy,y,x")
    assert len(calls) == 1 and [format_monomial(g) for g in dropped] == ["xy", "x"]
    square = ideal.power(2)
    assert len(calls) == 2
    assert square == MonomialIdeal(square.table, square.gens)
    assert len(calls) == 3
    assert [format_monomial(g) for g in square.gens] == ["x^2", "xy", "y^2"]


def test_ideal_requires_minimal_generators():
    table = VariableTable(("x", "y"))
    x, y = Monomial(table, (1, 0)), Monomial(table, (0, 1))
    assert MonomialIdeal(table, (x, x * y)).gens == (x,)
    assert MonomialIdeal.minimal([x, x * y, y]).q == 2


# -- lcm lattice -------------------------------------------------------------


def sorted_subset_lattice(ideal):
    """The oracle's lattice as exponent tuples in `Monomial.sort_key` order."""
    return tuple(sorted(m.sort_key() for m in lcm_lattice_by_subsets(ideal)))


def decoded_lattice(ideal):
    """`lcm_lattice`'s codes decoded into exponent tuples, in its order."""
    return tuple(ideal.decode(c).exponents for c in lcm_lattice(ideal))


def test_lcm_lattice_examples():
    one_gen, _ = parse_ideal("ab")
    assert lcm_lattice(one_gen) == (0b11,)
    assert decoded_lattice(one_gen) == ((1, 1),)

    # a, b, c: bc < ab < abc as exponent tuples and as codes
    two, _ = parse_ideal("ab,bc")
    assert lcm_lattice(two) == (0b011, 0b110, 0b111)
    assert decoded_lattice(two) == ((0, 1, 1), (1, 1, 0), (1, 1, 1))

    xyz, _ = parse_ideal("x,y,z")
    assert len(lcm_lattice(xyz)) == 7

    # one bit for the lone nonzero exponent of x, however large
    huge, _ = parse_ideal("x^1000000000,y")
    assert lcm_lattice(huge) == (0b01, 0b10, 0b11)
    assert decoded_lattice(huge) == sorted_subset_lattice(huge)
    assert decoded_lattice(huge)[-1] == (10**9, 1)


def test_lcm_lattice_closure_matches_subset_enumeration():
    # the same elements in the same order: square-free ideals and their squares
    import random

    from lsquare.randoms import random_squarefree_ideal

    rng = random.Random(13)
    for _ in range(20):
        ideal = random_squarefree_ideal(rng, 6, rng.randint(1, 5))
        assert decoded_lattice(ideal) == sorted_subset_lattice(ideal)
        square = ideal.power(2)
        if square.q <= 10:
            assert decoded_lattice(square) == sorted_subset_lattice(square)
    # a larger instance near the documented enumeration limit
    big = None
    while big is None:
        big = random_squarefree_ideal(rng, 9, 12)
    assert decoded_lattice(big) == sorted_subset_lattice(big)


def test_lcm_lattice_with_huge_exponents_closes_fast():
    # lanes are as wide as the number of distinct exponents, not their size;
    # x has five nonzero levels
    table = VariableTable(("x", "y", "z", "w"))
    gens = [
        (10**6, 3, 0, 1),
        (7, 10**6 + 1, 2, 0),
        (0, 999_999, 10**6 + 5, 4),
        (999_998, 0, 11, 10**6),
        (5, 2, 10**6 - 3, 999_997),
        (10**6 + 2, 10**6 + 3, 1, 0),
    ]
    ideal = MonomialIdeal.minimal([Monomial(table, e) for e in gens])
    start = time.perf_counter()
    lattice = lcm_lattice(ideal)
    assert time.perf_counter() - start < 1.0
    assert ideal.encoding[1][0][0].bit_count() == 5
    assert decoded_lattice(ideal) == sorted_subset_lattice(ideal)
    assert ideal.sorted_lattice == lattice


# -- property tests -----------------------------------------------------------


@st.composite
def monomial_lists(draw):
    """Up to 8 monomials in up to 8 variables; small exponents make ties,
    divisors and repeats common next to exponents up to 10^6."""
    n = draw(st.integers(1, 8))
    table = VariableTable(tuple("abcdefgh"[:n]))
    exponent = st.one_of(st.integers(0, 2), st.integers(0, 10**6))
    rows = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return [Monomial(table, r) for r in rows]


@settings(max_examples=300)
@given(monomial_lists())
def test_thermometer_codes_agree_with_monomial_arithmetic(gens):
    codes, lanes = thermometer_codes(gens)
    assert len(lanes) == gens[0].table.n
    # the lanes are runs of at most len(gens) bits, x_0's on top, that tile
    # the codes, and each maps its values 2^r - 1, in place, to level r
    top = 0
    shifts = []
    for mask, level in reversed(lanes):
        width, shift = mask.bit_count(), top.bit_length()
        assert width <= len(gens) and mask == ((1 << width) - 1) << shift
        levels = sorted(level.values())
        assert level == {((1 << r) - 1) << shift: e for r, e in enumerate(levels)}
        shifts.insert(0, shift)
        top |= mask
    assert all(c & ~top == 0 for c in codes)

    def decode(c):
        """Each lane's level by its bit length, shifted down."""
        return tuple(
            sorted(level.values())[((c & mask) >> shift).bit_length()]
            for (mask, level), shift in zip(lanes, shifts)
        )

    for u, c in zip(gens, codes):
        assert decode(c) == u.exponents
        for v, d in zip(gens, codes):
            assert decode(c | d) == u.lcm(v).exponents
            assert (d & ~c == 0) == v.divides(u)
            assert (c == d) == (u == v)
            assert (c < d) == (u.sort_key() < v.sort_key())


@st.composite
def lists_with_divisor_chains(draw):
    """`monomial_lists` with up to three chains g | g*h | g*h*h' of multiples
    of its elements inserted at random places."""
    gens = draw(monomial_lists())
    table = gens[0].table
    exponent = st.one_of(st.integers(0, 2), st.integers(0, 10**6))
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.sampled_from(gens))
        for _ in range(draw(st.integers(1, 3))):
            m = m * Monomial(table, draw(st.tuples(*[exponent] * table.n)))
            gens.insert(draw(st.integers(0, len(gens))), m)
    return gens


@settings(max_examples=300)
@given(lists_with_divisor_chains())
def test_minimalize_matches_the_pairwise_oracle(gens):
    got, want = minimalize(gens), minimalize_pairwise(gens)
    # identity, not just equality: a repeat keeps its first occurrence
    assert list(map(id, got)) == list(map(id, want))


@settings(max_examples=200)
@given(lists_with_divisor_chains())
def test_the_constructor_presents_the_ideal_by_incomparable_generators(gens):
    ideal = MonomialIdeal(gens[0].table, gens)
    assert ideal == MonomialIdeal.minimal(gens)
    for g, h in itertools.permutations(ideal.gens, 2):
        assert not g.divides(h)
    assert all(any(g.divides(m) for g in ideal.gens) for m in gens)


small_monomials = st.builds(
    lambda exps: Monomial(ABC, exps),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)


@given(small_monomials, small_monomials, small_monomials)
def test_divides_is_a_partial_order(a, b, c):
    assert a.divides(a)
    if a.divides(b) and b.divides(a):
        assert a == b
    if a.divides(b) and b.divides(c):
        assert a.divides(c)


@given(small_monomials, small_monomials, small_monomials)
def test_lcm_is_least_upper_bound(a, b, c):
    j = a.lcm(b)
    assert a.divides(j) and b.divides(j)
    if a.divides(c) and b.divides(c):
        assert j.divides(c)


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(0, 6))
    row = st.tuples(*[st.integers(0, 10**6)] * n)
    return draw(row), draw(row)


@given(exponent_pairs())
def test_divides_lcm_and_product_agree_with_exponent_arithmetic(pair):
    a, b = pair
    table = VariableTable(tuple("uvwxyz"[: len(a)]))
    x, y = Monomial(table, a), Monomial(table, b)
    assert x.divides(y) == all(i <= j for i, j in zip(a, b))
    assert x.lcm(y).exponents == tuple(max(i, j) for i, j in zip(a, b))
    assert (x * y).exponents == tuple(i + j for i, j in zip(a, b))


def test_equal_but_distinct_tables_are_accepted():
    t1, t2 = VariableTable(("x", "y")), VariableTable(("x", "y"))
    assert t1 is not t2
    a, b = Monomial(t1, (1, 2)), Monomial(t2, (2, 1))
    assert a.divides(Monomial(t2, (1, 3)))
    for got, want in ((a.lcm(b), (2, 2)), (a * b, (3, 3))):
        assert got == Monomial(t1, want) == Monomial(t2, want)
        assert hash(got) == hash(Monomial(t1, want)) == hash(Monomial(t2, want))


def test_tables_with_other_names_are_rejected_by_every_operation():
    a = Monomial(VariableTable(("x", "y")), (1, 0))
    b = Monomial(VariableTable(("x", "z")), (1, 0))
    for op in (Monomial.divides, Monomial.lcm, Monomial.__mul__):
        with pytest.raises(VariableMismatch):
            op(a, b)


def test_exponents_stay_nonnegative_and_unbounded():
    with pytest.raises(ValueError, match="nonnegative"):
        Monomial(ABC, (0, -1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        Monomial(ABC, (-(10**6), 10**6, 0))
    big = Monomial(ABC, (10**6 - 1, 10**6, 1))
    assert (big * big).exponents == (2 * 10**6 - 2, 2 * 10**6, 2)
    assert big.divides(big * big) and not (big * big).divides(big)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_square_generators_come_from_pair_products(seed):
    import random

    from lsquare.randoms import sample_ideal

    ideal = sample_ideal(random.Random(seed), 6, 4)
    square = ideal.power(2)
    products = {
        ideal.gens[i] * ideal.gens[j]
        for i in range(ideal.q)
        for j in range(i, ideal.q)
    }
    assert set(square.gens) <= products
    assert all(any(g.divides(p) for g in square.gens) for p in products)


@st.composite
def exponent_ideals(draw):
    n = draw(st.integers(1, 6))
    table = VariableTable(tuple("abcdef"[:n]))
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=7)
    )
    return MonomialIdeal.minimal([Monomial(table, r) for r in rows])


@settings(max_examples=200)
@given(exponent_ideals())
def test_packed_lattice_matches_subset_enumeration(ideal):
    codes, _ = ideal.encoding
    assert [ideal.decode(c) for c in codes] == list(ideal.gens)
    assume(not ideal.is_squarefree())
    assert decoded_lattice(ideal) == sorted_subset_lattice(ideal)
