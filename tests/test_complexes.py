import random
import warnings
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lsquare.complexes import (
    SimplicialComplex,
    f_vector,
    quasi_forest_order,
)
from lsquare.homology import HomologyLimits, ResourceLimit
from lsquare.l2 import l2_skeleton, skeleton_face_bound

from oracles import (
    backtrack_leaf_order,
    brute_connected,
    delete_vertex,
    empty_or_connected,
    enumerated_f_vector,
    faces_by_dim,
    induced_subcomplex,
    is_chordal_clique_complex,
    is_connected,
    leaf_by_definition,
    maximalize,
    pair_index,
    reduced_homology_ranks,
    verify_leaf_order,
)

HOLLOW_TRIANGLE = SimplicialComplex.from_facets([{1, 2}, {2, 3}, {1, 3}])

facet_lists = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


def random_complex(rng, max_vertices=8, max_facets=6, max_size=4):
    nf = rng.randint(1, max_facets)
    facets = []
    for _ in range(nf):
        size = rng.randint(1, max_size)
        facets.append(rng.sample(range(max_vertices), min(size, max_vertices)))
    return SimplicialComplex.from_facets(facets)


def test_facets_are_maximalized_and_canonical():
    delta = SimplicialComplex.from_facets([{1, 2}, {2}, {1, 2}, {3}])
    assert delta.facets == (frozenset({1, 2}), frozenset({3}))


def test_facets_print_in_vertex_order_not_mask_order():
    # over ids (1, 2, 3) the mask of {2} is below that of {1, 3}
    delta = SimplicialComplex.from_facets([{1, 3}, {2}])
    assert delta.facet_masks == (0b010, 0b101)
    assert delta.facets == (frozenset({1, 3}), frozenset({2}))
    assert str(delta) == "<{1,3}, {2}>"


@given(
    st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=6),
    st.frozensets(st.integers(0, 9)),
)
@settings(max_examples=300, deadline=None)
def test_facets_match_the_frozenset_reference(faces, keep):
    delta = SimplicialComplex.from_facets(faces)
    assert delta.facets == maximalize(faces)
    assert delta.is_void == (not faces)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sub = induced_subcomplex(delta, keep)
    assert sub.facets == maximalize(f & keep for f in maximalize(faces))
    assert sub.is_void == delta.is_void
    # the stored form is canonical, so equal complexes compare equal
    assert sub == SimplicialComplex.from_facets(sub.facets)


def test_void_and_empty_distinction():
    void = SimplicialComplex.from_facets([])
    empty = SimplicialComplex.from_facets([frozenset()])
    assert void.is_void and not void.vertices
    assert not empty.is_void and not empty.vertices
    assert reduced_homology_ranks(void) == {}
    assert reduced_homology_ranks(empty) == {-1: 1}
    assert f_vector(void) == () and f_vector(empty) == ()
    assert induced_subcomplex(void, ()) == void
    assert induced_subcomplex(empty, ()) == empty


def test_f_vector_triangle():
    assert f_vector(SimplicialComplex.from_facets([{1, 2, 3}])) == (3, 3, 1)


@given(facet_lists)
@settings(max_examples=100, deadline=None)
def test_f_vector_counts_the_enumerated_faces(facets):
    delta = SimplicialComplex.from_facets(facets)
    assert f_vector(delta) == enumerated_f_vector(delta)


def test_f_vector_of_a_big_facet_lists_no_faces():
    # the q = 8 skeleton has an off-diagonal facet on 28 vertices (2^28 faces)
    # and a facet nerve of a few dozen subfamilies
    fv = f_vector(l2_skeleton(8), HomologyLimits(max_faces=1000))
    assert list(fv) == [skeleton_face_bound(8, d) for d in range(28)]


def test_f_vector_stops_at_the_face_cap_on_a_huge_nerve():
    # 40 edges on one apex: every subfamily of facets meets, so the nerve has
    # 2^40 faces; the walk must stop at the cap instead of listing them
    fan = SimplicialComplex.from_facets([{0, v} for v in range(1, 41)])
    with pytest.raises(ResourceLimit) as err:
        f_vector(fan, HomologyLimits(max_faces=10_000))
    assert (err.value.cap, err.value.estimate, err.value.limit) == (
        "max-faces",
        1 << 40,
        10_000,
    )


def test_faces_by_dim_includes_empty_face():
    fd = faces_by_dim(SimplicialComplex.from_facets([{1, 2}]))
    assert fd[-1] == [frozenset()]
    assert fd[0] == [frozenset({1}), frozenset({2})]
    assert fd[1] == [frozenset({1, 2})]


def test_induced_subcomplex_examples():
    delta = SimplicialComplex.from_facets([{1, 2, 3}])
    assert induced_subcomplex(delta, {1, 2, 3}) == delta
    assert induced_subcomplex(delta, {1, 3}).facets == (frozenset({1, 3}),)
    with pytest.warns(UserWarning):
        induced_subcomplex(delta, {1, 99})


def test_induced_on_skeleton_diagonal_pair_is_disconnected():
    sk = l2_skeleton(3)
    w = {pair_index(3, 1, 1), pair_index(3, 2, 2)}
    sub = induced_subcomplex(sk, w)
    assert len(sub.facets) == 2 and not is_connected(sub)


def test_delete_vertex():
    point = SimplicialComplex.from_facets([{7}])
    assert not delete_vertex(point, 7).vertices
    path = SimplicialComplex.from_facets([{1, 2}, {2, 3}])
    assert delete_vertex(path, 2).facets == (frozenset({1}), frozenset({3}))
    with pytest.raises(ValueError):
        delete_vertex(path, 9)


def test_delete_equals_induced_complement():
    rng = random.Random(5)
    for _ in range(50):
        delta = random_complex(rng)
        v = rng.choice(sorted(delta.vertices))
        assert delete_vertex(delta, v) == induced_subcomplex(delta, delta.vertices - {v})


def test_induced_is_monotone():
    rng = random.Random(6)
    for _ in range(30):
        delta = random_complex(rng)
        verts = sorted(delta.vertices)
        w2 = set(rng.sample(verts, rng.randint(0, len(verts))))
        w1 = set(rng.sample(sorted(w2), rng.randint(0, len(w2)))) if w2 else set()
        faces1 = brute_faces_set(induced_subcomplex(delta, w1))
        faces2 = brute_faces_set(induced_subcomplex(delta, w2))
        assert faces1 <= faces2


def brute_faces_set(delta):
    out = set()
    for d, faces in faces_by_dim(delta).items():
        out.update(faces)
    return out


def test_connectivity_tristate():
    assert is_connected(SimplicialComplex.from_facets([{4}]))
    assert not is_connected(SimplicialComplex.from_facets([{1, 2}, {3}]))
    assert is_connected(l2_skeleton(3))
    empty = SimplicialComplex.from_facets([frozenset()])
    with pytest.raises(ValueError):
        is_connected(empty)
    assert empty_or_connected(empty)


def test_connectivity_matches_bfs_oracle():
    rng = random.Random(7)
    for _ in range(100):
        delta = random_complex(rng)
        assert is_connected(delta) == brute_connected([tuple(f) for f in delta.facets])


def test_connectivity_matches_homology_rank():
    rng = random.Random(8)
    for _ in range(40):
        delta = random_complex(rng)
        ranks = reduced_homology_ranks(delta)
        assert is_connected(delta) == (ranks.get(0, 0) == 0)


# -- leaves and quasi-forest orders ----------------------------------------


def test_single_facet_is_a_leaf_without_joint():
    delta = SimplicialComplex.from_facets([{1, 2, 3}])
    assert quasi_forest_order(delta) == [frozenset({1, 2, 3})]
    assert verify_leaf_order([frozenset({1, 2, 3})])


def test_skeleton_row_is_leaf_with_big_facet_joint():
    sk = l2_skeleton(3)
    row1 = frozenset(pair_index(3, 1, j) for j in (1, 2, 3))
    big = frozenset(
        pair_index(3, i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i < j
    )
    assert row1 in sk.facets and big in sk.facets
    assert verify_leaf_order([big, row1])
    # row1 is a leaf of the whole skeleton, and what is left still peels
    rest = quasi_forest_order(
        SimplicialComplex.from_facets(f for f in sk.facets if f != row1)
    )
    assert rest is not None and verify_leaf_order(rest + [row1])


def test_hollow_triangle_has_no_leaf():
    assert quasi_forest_order(HOLLOW_TRIANGLE) is None
    for order in permutations(HOLLOW_TRIANGLE.facets):
        assert not verify_leaf_order(list(order))


def test_quasi_forest_order_trivial_cases():
    assert quasi_forest_order(SimplicialComplex.from_facets([])) == []
    assert quasi_forest_order(SimplicialComplex.from_facets([frozenset()])) == []
    point = SimplicialComplex.from_facets([{1}])
    assert quasi_forest_order(point) == [frozenset({1})]


def test_quasi_forest_order_is_verified_leaf_order():
    rng = random.Random(9)
    for _ in range(100):
        delta = random_complex(rng)
        order = quasi_forest_order(delta)
        if order is not None:
            assert verify_leaf_order(order)
            assert sorted(map(sorted, order)) == sorted(map(sorted, delta.facets))


@given(facet_lists)
@settings(max_examples=150)
def test_greedy_agrees_with_backtracking(facets):
    # the peel against both independent quasi-forest references
    delta = SimplicialComplex.from_facets(facets)
    peeled = quasi_forest_order(delta) is not None
    assert peeled == (backtrack_leaf_order(delta.facets) is not None)
    assert peeled == is_chordal_clique_complex(delta.facets)


@given(facet_lists)
@settings(max_examples=100)
def test_removing_any_leaf_of_a_quasi_forest_leaves_a_quasi_forest(facets):
    # the claim that makes the peel exact, checked with the exhaustive search
    delta = SimplicialComplex.from_facets(facets)
    if backtrack_leaf_order(delta.facets) is None:
        return
    for f in delta.facets:
        if leaf_by_definition(delta.facets, f):
            rest = [g for g in delta.facets if g != f]
            assert backtrack_leaf_order(rest) is not None


def test_quasi_forest_past_twenty_facets_gets_a_verified_order():
    # a strip of 22 triangles, and 25 facets each glued into one of the last
    # three along a proper face
    strip = SimplicialComplex.from_facets({i, i + 1, i + 2} for i in range(22))
    rng = random.Random(3)
    facets = [frozenset({0, 1, 2})]
    fresh = 3
    while len(facets) < 25:
        joint = sorted(facets[-rng.randint(1, min(3, len(facets)))])
        shared = rng.sample(joint, rng.randint(1, len(joint) - 1))
        new = rng.randint(1, 2)
        facets.append(frozenset(shared) | set(range(fresh, fresh + new)))
        fresh += new
    grown = SimplicialComplex.from_facets(facets)
    for delta in (strip, grown):
        assert len(delta.facets) >= 20
        assert is_chordal_clique_complex(delta.facets)
        order = quasi_forest_order(delta)
        assert order is not None and verify_leaf_order(order)
        assert sorted(map(sorted, order)) == sorted(map(sorted, delta.facets))


def test_non_quasi_forest_past_twenty_facets_is_rejected():
    # a hollow triangle with 17 pendant edges: the peel strips every pendant
    # edge and then finds no leaf
    pendants = [{1 + i % 3, 4 + i} for i in range(17)]
    delta = SimplicialComplex.from_facets(list(HOLLOW_TRIANGLE.facets) + pendants)
    assert len(delta.facets) == 20
    assert not is_chordal_clique_complex(delta.facets)
    assert quasi_forest_order(delta) is None


@given(facet_lists)
@settings(max_examples=60, deadline=None)
def test_euler_characteristic_consistency(facets):
    delta = SimplicialComplex.from_facets(facets)
    fv = f_vector(delta)
    ranks = reduced_homology_ranks(delta)
    lhs = sum((-1) ** d * c for d, c in enumerate(fv))
    rhs = 1 - ranks.get(-1, 0) + sum(
        (-1) ** d * r for d, r in ranks.items() if d >= 0
    )
    assert lhs == rhs
