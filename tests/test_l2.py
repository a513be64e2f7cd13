import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lsquare.complexes import f_vector, quasi_forest_order
from lsquare.homology import RATIONALS, PrimeField
from lsquare.l2 import (
    DeletionRecord,
    DiagonalDeleted,
    bound_table,
    deletion_face_bound,
    l2_of_ideal,
    pairs_of,
    skeleton_face_bound,
    square_betti_numbers,
    taylor_face_bound,
)
from lsquare.labeled import betti_numbers
from lsquare.monomials import (
    Monomial,
    MonomialIdeal,
    VariableTable,
    parse_ideal,
)
from lsquare.randoms import sample_ideal

from oracles import (
    brute_faces,
    enumerated_f_vector,
    graded_monomials,
    induced_subcomplex,
    l2_skeleton,
    minimalize_pairwise,
    pair_extremal_ideal,
    pair_index,
    variables_ideal,
    verify_leaf_order,
)


def skeleton(q):
    """L2_q as the package builds it: L2 of the ideal of q variables."""
    return l2_of_ideal(variables_ideal(q))[0].complex


def test_pair_index_matches_enumeration():
    for q in range(1, 9):
        pairs = pairs_of(q)
        assert len(pairs) == comb(q + 1, 2)
        for k, (i, j) in enumerate(pairs):
            assert pair_index(q, i, j) == k
            assert pair_index(q, j, i) == k


def test_skeleton_small_cases():
    assert [sorted(f) for f in skeleton(1).facets] == [[0]]

    two = skeleton(2)  # two segments sharing the off-diagonal vertex
    assert sorted(sorted(f) for f in two.facets) == [[0, 1], [1, 2]]

    three = skeleton(3)
    assert len(three.facets) == 4
    assert sorted(len(f) for f in three.facets) == [3, 3, 3, 3]

    four = skeleton(4)
    assert len(four.vertices) == 10 and len(four.facets) == 5
    assert sorted(len(f) - 1 for f in four.facets) == [3, 3, 3, 3, 5]


def test_skeleton_face_counts_match_closed_form():
    for q in range(1, 7):
        fv = f_vector(skeleton(q))
        top = max(q * (q - 1) // 2 - 1, q - 1)
        assert list(fv) == [skeleton_face_bound(q, d) for d in range(top + 1)]


def test_skeleton_quasi_forest_orders_up_to_eight():
    for q in range(1, 9):
        sk = skeleton(q)
        order = quasi_forest_order(sk)
        assert order is not None and verify_leaf_order(order)
        if q >= 3:
            # the canonical order (off-diagonal facet first, then the rows) is
            # a leaf order in which the off-diagonal facet joints every row
            big = frozenset(
                pair_index(q, i, j)
                for i in range(1, q + 1)
                for j in range(i + 1, q + 1)
            )
            rows = [
                frozenset(pair_index(q, i, j) for j in range(1, q + 1))
                for i in range(1, q + 1)
            ]
            canonical = [big] + rows
            assert verify_leaf_order(canonical)
            for k in range(1, len(canonical)):
                hull = set()
                for h in canonical[:k]:
                    hull |= canonical[k] & h
                assert hull <= big
        if q >= 4:
            # the strictly largest facet cannot be peeled before the rows
            assert order[0] == max(sk.facets, key=len)


def test_running_example_deletion():
    I, _ = parse_ideal("abe,bc,cdf,ad")
    lab, record = l2_of_ideal(I)
    assert record.deleted == frozenset({(1, 3)})
    assert record.s == 9
    assert record.t == (1, 0, 1, 0)
    assert sorted(len(f) - 1 for f in lab.complex.facets) == [2, 2, 3, 3, 4]
    assert f_vector(lab.complex) == (9, 20, 18, 7, 1)
    # the deleted vertex is the one labeled by the product of generators 1 and 3
    deleted_label = I.gens[0] * I.gens[2]
    assert deleted_label not in set(lab.labels.values())


def test_running_example_matches_vertex_deletion():
    from oracles import delete_vertex

    I, _ = parse_ideal("abe,bc,cdf,ad")
    lab, _ = l2_of_ideal(I)
    assert lab.complex == delete_vertex(l2_skeleton(4), pair_index(4, 1, 3))


def test_skeleton_oracle_needs_a_pair():
    with pytest.raises(ValueError):
        l2_skeleton(0)


def test_no_deletion_examples():
    J, _ = parse_ideal("x,y,z,w")
    labJ, recJ = l2_of_ideal(J)
    assert not recJ.deleted and recJ.s == 10
    assert labJ.complex == l2_skeleton(4)

    S, _ = parse_ideal("xabc,yade,zbdf,wcef")
    labS, recS = l2_of_ideal(S)
    assert not recS.deleted
    assert labS.complex == l2_skeleton(4)

    # L2 of q variables and of the pair-extremal ideal P_q deletes no pair, is
    # the skeleton built from its definition, and labels pair (i, j) g_i * g_j
    ideals = [variables_ideal(q) for q in range(1, 10)]
    ideals += [pair_extremal_ideal(q) for q in range(1, 7)]
    for ideal in ideals:
        q, gens = ideal.q, ideal.gens
        lab, record = l2_of_ideal(ideal)
        assert not record.deleted and record.s == comb(q + 1, 2)
        assert lab.complex == l2_skeleton(q)
        for i, j in pairs_of(q):
            assert lab.labels[pair_index(q, i, j)] == gens[i - 1] * gens[j - 1]


def test_l2_rejects_non_squarefree():
    I, _ = parse_ideal("x^2,y")
    with pytest.raises(ValueError) as err:
        l2_of_ideal(I)
    assert "x^2" in str(err.value)


def test_labels_are_the_square_generators():
    rng = random.Random(41)
    for _ in range(40):
        ideal = sample_ideal(rng, 7, 5)
        lab, record = l2_of_ideal(ideal)
        square = ideal.power(2)
        assert set(lab.labels.values()) == set(square.gens)
        # the same generators in the same order, so the Taylor read-off on
        # lab.ideal prints what one on the power would
        assert lab.ideal.gens == square.gens
        assert record.s == square.q
        assert all(i != j for i, j in record.deleted)
        assert sum(record.t) == 2 * len(record.deleted)
        # the complex is the induced subcomplex of the skeleton on the pairs
        # the record keeps, so a wrong vertex set shows too
        survivors = [k for k, p in enumerate(pairs_of(ideal.q)) if p not in record.deleted]
        assert lab.complex == induced_subcomplex(l2_skeleton(ideal.q), survivors)


@st.composite
def squarefree_ideals(draw):
    """Square-free ideals on at most 6 variables: either k-subsets of the
    variables, whose pair products tie often, or random supports."""
    n = draw(st.integers(2, 6))
    table = VariableTable(tuple("abcdef"[:n]))
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        pool = list(combinations(range(n), k))
    else:
        pool = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    supports = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7, unique=True))
    gens = [Monomial(table, [int(v in s) for v in range(n)]) for s in supports]
    return MonomialIdeal.minimal(gens)


@given(squarefree_ideals())
@settings(max_examples=200, deadline=None)
def test_l2_of_ideal_deletes_what_the_pairwise_oracle_drops(ideal):
    # a pair is deleted exactly when its product is not a minimal generator
    # of the square, by the pairwise oracle, or a later pair has the same one
    pairs = pairs_of(ideal.q)
    gens = ideal.gens
    products = [gens[i - 1] * gens[j - 1] for i, j in pairs]
    minimal = set(minimalize_pairwise(products))
    expected = {
        pairs[k]
        for k, p in enumerate(products)
        if p not in minimal or p in products[k + 1 :]
    }
    lab, record = l2_of_ideal(ideal)
    assert record.deleted == expected
    # and the complex is the skeleton's induced subcomplex on the kept pairs
    kept = [k for k, p in enumerate(pairs) if p not in record.deleted]
    assert lab.complex == induced_subcomplex(l2_skeleton(ideal.q), kept)


def test_l2_of_ideal_builds_no_power(monkeypatch):
    # the labels and the square they generate come from one pair-product
    # table, minimalized once; no power of the ideal is built
    def no_power(self, r):
        raise AssertionError("l2_of_ideal built a power of the ideal")

    I, _ = parse_ideal("abe,bc,cdf,ad")
    square = I.power(2)
    monkeypatch.setattr(MonomialIdeal, "power", no_power)
    lab, record = l2_of_ideal(I)
    labels = list(lab.labels.values())
    assert len(labels) == square.q and set(labels) == set(square.gens)
    assert lab.ideal == square
    assert record.deleted == {(1, 3)}


def test_equal_products_keep_one_representative():
    # ab * cd = ac * bd = ad * bc: three coincident labels collapse to one vertex
    I, _ = parse_ideal("ab,cd,ac,bd,ad,bc")
    lab, record = l2_of_ideal(I)
    square = I.power(2)
    assert set(lab.labels.values()) == set(square.gens)
    abcd = parse_ideal("abcd")[0].gens[0]
    carriers = [v for v, m in lab.labels.items() if m == abcd]
    assert len(carriers) == 1


def test_deletion_record_invariants_and_json():
    record = DeletionRecord(4, frozenset({(1, 3)}))
    assert record.s == 9
    assert record.t == (1, 0, 1, 0)
    obj = record.to_json()
    assert obj == {"deleted": [[1, 3]], "s": 9, "t": [1, 0, 1, 0]}
    # a deleted pair is off the diagonal, ordered and in range; a diagonal
    # one has its own ValueError, which `verify` reports as diagonal-survives
    for pair in [(3, 1), (0, 1), (1, 5)]:
        with pytest.raises(ValueError) as err:
            DeletionRecord(4, frozenset({pair}))
        assert not isinstance(err.value, DiagonalDeleted)
    with pytest.raises(DiagonalDeleted):
        DeletionRecord(4, frozenset({(2, 2)}))


def test_bound_formulas_match_tables():
    assert [skeleton_face_bound(4, d) for d in range(7)] == [10, 27, 32, 19, 6, 1, 0]
    record = DeletionRecord(4, frozenset({(1, 3)}))
    assert [deletion_face_bound(record, d) for d in range(7)] == [9, 20, 18, 7, 1, 0, 0]
    assert [taylor_face_bound(10, d) for d in range(7)] == [10, 45, 120, 210, 252, 210, 120]
    assert [taylor_face_bound(9, d) for d in range(7)] == [9, 36, 84, 126, 126, 84, 36]
    assert taylor_face_bound(9, 9) == 0
    assert skeleton_face_bound(1, 0) == 1 and skeleton_face_bound(1, 1) == 0


def test_no_deletions_reduce_bound_to_skeleton_bound():
    record = DeletionRecord(4, frozenset())
    for d in range(8):
        assert deletion_face_bound(record, d) == skeleton_face_bound(4, d)


def test_deletion_bound_equals_enumerated_f_vector():
    rng = random.Random(42)
    for _ in range(40):
        ideal = sample_ideal(rng, 7, 6)
        lab, record = l2_of_ideal(ideal)
        fv = f_vector(lab.complex)
        assert fv == enumerated_f_vector(lab.complex)
        for d in range(len(fv) + 2):
            expected = fv[d] if d < len(fv) else 0
            assert deletion_face_bound(record, d) == expected


def test_bound_table_running_example():
    I, _ = parse_ideal("abe,bc,cdf,ad")
    table = bound_table(I)
    rows = dict(table.rows)
    assert table.q == 4 and table.s == 9 and table.max_d == 6
    assert rows["taylor-largest"] == [10, 45, 120, 210, 252, 210, 120]
    assert rows["taylor"] == [9, 36, 84, 126, 126, 84, 36]
    assert rows["skeleton"] == [10, 27, 32, 19, 6, 1, 0]
    assert rows["complex"] == [9, 20, 18, 7, 1, 0, 0]
    assert rows["betti"] == [9, 14, 6, 0, 0, 0, 0]


def test_bound_table_four_variables():
    J, _ = parse_ideal("x,y,z,w")
    table = bound_table(J)
    rows = dict(table.rows)
    assert rows["skeleton"] == [10, 27, 32, 19, 6, 1, 0]
    assert rows["betti"] == [10, 20, 15, 4, 0, 0, 0]


def test_bound_table_principal_ideal():
    one, _ = parse_ideal("ab")
    rows = dict(bound_table(one).rows)
    assert rows["betti"][0] == 1
    assert all(v == 0 for v in rows["betti"][1:])
    assert rows["complex"][0] == 1


def test_sharpness_betti_equals_skeleton_f_vector(sharpness_ideal):
    lab, record = l2_of_ideal(sharpness_ideal)
    beta = betti_numbers(lab)
    assert beta.as_vector() == [10, 27, 32, 19, 6, 1]


# nonempty faces of L2(P_q), each carrying one graded Betti number of P_q^2
PAIR_EXTREMAL_FACES = {1: 1, 2: 5, 3: 19, 4: 95, 5: 1103}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(2), PrimeField(3)], ids=str)
@pytest.mark.parametrize("q", sorted(PAIR_EXTREMAL_FACES))
def test_pair_extremal_square_is_minimally_resolved_by_l2(q, field):
    # L2(P_q) deletes no pair, its face labels are distinct, and the graded
    # table of the square is 1 at each face label and 0 elsewhere, so the
    # skeleton bound is attained in every degree
    ideal = pair_extremal_ideal(q)
    lab, record = l2_of_ideal(ideal)
    assert not record.deleted
    beta = square_betti_numbers(lab, field)
    top = comb(q + 1, 2)
    assert beta.as_vector(top) == [skeleton_face_bound(q, d) for d in range(top + 1)]
    faces = [f for f in brute_faces(lab.complex.facets) if f]
    labels = {(len(f) - 1, lab.face_label(f)) for f in faces}
    assert len({m for _, m in labels}) == len(faces) == PAIR_EXTREMAL_FACES[q]
    assert graded_monomials(beta) == dict.fromkeys(labels, 1)


def test_pair_extremal_p4_is_the_sharpness_fixture(sharpness_ideal):
    rename = dict(
        zip(["x1", "x2", "x3", "x4", "x1_2", "x1_3", "x1_4", "x2_3", "x2_4", "x3_4"], "xyzwabcdef")
    )

    def supports(ideal, name=str):
        assert ideal.is_squarefree()
        return {
            frozenset(name(ideal.table.names[k]) for k, e in enumerate(g.exponents) if e)
            for g in ideal.gens
        }

    assert supports(pair_extremal_ideal(4), rename.get) == supports(sharpness_ideal)
