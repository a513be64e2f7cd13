import inspect
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from lsquare.complexes import SimplicialComplex
from lsquare.homology import (
    HomologyLimits,
    PrimeField,
    RATIONALS,
    ResourceLimit,
    _boundary,
    _is_prime,
    _transpose,
    connected_from_members,
    enumerate_face_masks,
    matrix_rank,
    maximal_masks,
    parse_field,
    ranks_from_face_masks,
    ranks_from_members,
    strong_core,
)

from oracles import (
    brute_connected,
    brute_reduced_homology,
    dense_pivot_columns,
    dense_rank,
    forced_ranks,
    level_nerve_faces,
    plain_ranks_from_face_masks,
    reduced_homology_ranks,
    relabelled,
)


def cx(*facets):
    return SimplicialComplex.from_facets(facets)


def nonzero(ranks):
    """The nonzero entries of a padded rank dict, as the package returns them."""
    return {d: r for d, r in ranks.items() if r}


def test_simplex_is_acyclic():
    for k in range(1, 6):
        assert reduced_homology_ranks(cx(set(range(k)))) == {}


def test_hollow_triangle_circle():
    ranks = reduced_homology_ranks(cx({1, 2}, {2, 3}, {1, 3}))
    assert ranks == {1: 1}


def test_two_points():
    assert reduced_homology_ranks(cx({1}, {2}))[0] == 1


def test_sphere_from_tetrahedron_boundary():
    ranks = reduced_homology_ranks(cx({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}))
    assert ranks == {2: 1}


def test_projective_plane_detects_the_field():
    # minimal 6-vertex triangulation of the projective plane; 2-torsion makes
    # GF(2) homology differ from rational homology
    rp2 = cx(
        {1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
        {2, 3, 5}, {3, 4, 6}, {2, 4, 5}, {3, 5, 6}, {2, 4, 6},
    )
    assert reduced_homology_ranks(rp2, RATIONALS) == {}
    assert reduced_homology_ranks(rp2, PrimeField(2)) == {1: 1, 2: 1}


def test_matches_brute_force_oracle_on_random_complexes():
    rng = random.Random(21)
    for _ in range(60):
        nf = rng.randint(1, 6)
        facets = [
            tuple(sorted(rng.sample(range(7), rng.randint(1, 4)))) for _ in range(nf)
        ]
        delta = SimplicialComplex.from_facets(facets)
        for field, p in ((RATIONALS, None), (PrimeField(2), 2), (PrimeField(3), 3)):
            got = reduced_homology_ranks(delta, field)
            want = brute_reduced_homology(facets, p=p)
            assert got == nonzero(want), (facets, field)


def test_nerve_route_equals_enumeration_route():
    rng = random.Random(22)
    for _ in range(80):
        nf = rng.randint(2, 7)
        facets = [
            tuple(sorted(rng.sample(range(9), rng.randint(1, 5)))) for _ in range(nf)
        ]
        delta = SimplicialComplex.from_facets(facets)
        for field in (RATIONALS, PrimeField(2)):
            via_enum = forced_ranks(delta.facet_masks, "enumerate", field)
            via_nerve = forced_ranks(delta.facet_masks, "nerve", field)
            assert via_enum == via_nerve, facets


def test_members_engine_edge_cases():
    # the void complex and the empty one are told apart
    assert ranks_from_members([]) == {}
    assert ranks_from_members([0]) == {-1: 1}
    assert ranks_from_members([0, 0]) == {-1: 1}
    # a cone: common vertex bit 0
    assert ranks_from_members([0b011, 0b101]) == {}


def masks_of(*facets):
    return maximal_masks([sum(1 << v for v in f) for f in facets])


RP2 = (
    {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
    {1, 2, 4}, {2, 3, 5}, {1, 3, 4}, {2, 4, 5}, {1, 3, 5},
)


def test_strong_core_reduces_a_cone_to_one_member():
    assert strong_core(masks_of({0, 1}, {0, 2})) == [0b001]
    # a cone on vertex 3 over a hollow triangle
    core = strong_core(masks_of({0, 1, 3}, {1, 2, 3}, {0, 2, 3}))
    assert len(core) == 1 and core[0].bit_count() == 1


def test_strong_core_collapses_a_path_that_is_not_a_cone():
    core = strong_core(masks_of({0, 1}, {1, 2}, {2, 3}))
    assert len(core) == 1 and core[0].bit_count() == 1


def test_strong_core_keeps_complexes_without_dominated_vertices():
    for facets in (
        ({0, 1}, {1, 2}, {0, 2}),  # hollow triangle
        ({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}),  # tetrahedron boundary
        RP2,
    ):
        live = masks_of(*facets)
        assert strong_core(live) == live


def test_strong_core_deletes_one_vertex_at_a_time():
    # each end of an edge dominates the other; deleting both would leave the
    # void complex, so exactly one vertex must survive
    for edge in (0b11, 0b101000):
        core = strong_core([edge])
        assert len(core) == 1 and core[0].bit_count() == 1 and core[0] & edge


def test_strong_core_shrinks_a_circle_with_a_whisker():
    # a hollow square with a pendant edge: the whisker collapses away
    square = masks_of({0, 1}, {1, 2}, {2, 3}, {0, 3})
    assert strong_core(masks_of({0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4})) == square


# members of at most six of nine vertices keep the dense oracle quick; a
# budget of one face makes the router weigh the nerve against enumeration
member_families = st.lists(
    st.sets(st.integers(0, 8), max_size=6).map(lambda vs: sum(1 << v for v in vs)),
    max_size=7,
)
NERVE_WHEN_SMALLER = HomologyLimits(enumeration_budget=1)


@given(member_families)
@settings(max_examples=100, deadline=None)
def test_routed_ranks_agree_with_forced_routes_and_the_oracle(members):
    facets = [tuple(b for b in range(9) if m >> b & 1) for m in members]
    for field, p in ((RATIONALS, None), (PrimeField(2), 2), (PrimeField(3), 3)):
        want = nonzero(brute_reduced_homology(facets, p=p))
        assert ranks_from_members(members, field) == want
        assert ranks_from_members(members, field, NERVE_WHEN_SMALLER) == want
        assert forced_ranks(members, "enumerate", field) == want
        assert forced_ranks(members, "nerve", field) == want


# ranks_from_face_masks clears; plain_ranks_from_face_masks hands
# matrix_rank every face and clears nothing
@given(member_families)
@settings(max_examples=100, deadline=None)
def test_cleared_ranks_equal_plain_ranks_and_the_oracle(members):
    facets = [tuple(b for b in range(9) if m >> b & 1) for m in members]
    faces = enumerate_face_masks(members, 1 << 12)
    live = maximal_masks(members)
    nerve = enumerate_face_masks(maximal_masks(_transpose(live)), 1 << 12)
    for field, p in ((RATIONALS, None), (PrimeField(2), 2), (PrimeField(3), 3)):
        want = nonzero(brute_reduced_homology(facets, p=p))
        assert ranks_from_face_masks(faces, field) == want
        assert plain_ranks_from_face_masks(faces, field) == want
        assert ranks_from_face_masks(nerve, field) == plain_ranks_from_face_masks(
            nerve, field
        )


@given(member_families)
@settings(max_examples=100, deadline=None)
def test_transposed_family_lists_the_nerve(members):
    live = maximal_masks(members)
    nerve = enumerate_face_masks(maximal_masks(_transpose(live)), 1 << 12)
    assert nerve == (level_nerve_faces(live) if live else set())


@given(member_families)
@settings(max_examples=100, deadline=None)
def test_double_transpose_renumbers_the_vertices(members):
    live = maximal_masks(members)
    assert tuple(_transpose(_transpose(live))) == relabelled(live)


@given(member_families)
@settings(max_examples=100, deadline=None)
def test_clearing_pivots_are_the_echelon_leads_of_the_full_map(members):
    # rows are keyed by face masks: the pivots matrix_rank reports for the
    # kept columns of d_d are the faces at the echelon leads of all of d_d,
    # rows in ascending mask order, so each pivot is the smallest key that
    # the clearing proof needs
    import lsquare.homology as hml

    faces = enumerate_face_masks(members, 1 << 12)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim, default=-1)
    for field, p in ((RATIONALS, None), (PrimeField(3), 3)):
        reported = []

        def spy(columns, field, pivots):
            rank = matrix_rank(columns, field, pivots)
            reported.append(set(pivots))
            return rank

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hml, "matrix_rank", spy)
            ranks_from_face_masks(faces, field)
        assert len(reported) == top + 1
        for d, pivots in zip(range(top, -1, -1), reported):
            rows = by_dim[d - 1]
            dense = [[0] * len(rows) for _ in by_dim[d]]
            for j, mask in enumerate(by_dim[d]):
                bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
                for pos, b in enumerate(bits):
                    dense[j][rows.index(mask ^ (1 << b))] = (-1) ** pos
            assert pivots == {rows[k] for k in dense_pivot_columns(dense, p)}


def test_clearing_goes_through_matrix_rank_for_every_dimension(monkeypatch):
    # on the boundary of a tetrahedron, clearing leaves 3 of the 6 edge
    # columns and 1 of the 4 vertex columns, and every dimension is still
    # ranked through matrix_rank
    import lsquare.homology as hml

    calls = []

    def spy(columns, field, pivots=None):
        calls.append(len(columns))
        return matrix_rank(columns, field, pivots)

    monkeypatch.setattr(hml, "matrix_rank", spy)
    faces = enumerate_face_masks(simplex_boundary(4), 1 << 10)
    assert ranks_from_face_masks(faces, RATIONALS) == {2: 1}
    # d_2: 4 triangles; d_1: 6 edges less the 3 pivots of d_2; d_0: 4 vertices
    # less the 3 pivots of d_1
    assert calls == [4, 3, 1]


def test_memo_ranks_equal_cores_on_other_vertices_once(monkeypatch):
    import lsquare.homology as hml

    calls = []

    def spy(faces, field):
        calls.append(len(faces))
        return ranks_from_face_masks(faces, field)

    monkeypatch.setattr(hml, "ranks_from_face_masks", spy)
    memo = {}
    circle = {1: 1}
    assert ranks_from_members(masks_of({0, 1}, {1, 2}, {0, 2}), memo=memo) == circle
    # a hollow triangle on 3, 5, 7 with a tetrahedron that collapses onto 7:
    # the core renumbers to the first one
    whiskered = masks_of({3, 5}, {5, 7}, {3, 7}, {7, 8, 9, 10})
    assert ranks_from_members(whiskered, memo=memo) == circle
    assert len(calls) == 1 and len(memo) == 1


def test_maximal_masks():
    assert maximal_masks([0b01, 0b11, 0b11, 0, 0b100]) == [0b11, 0b100]


@st.composite
def raw_member_families(draw):
    """Up to 10 masks on up to 12 vertices, with zero, repeated and nested masks.

    Masks of at most three vertices make disconnected unions common; a mask
    cut down from one already drawn is nested in it, or a copy of it when the
    cut keeps every vertex.
    """
    full = (1 << draw(st.integers(1, 12))) - 1
    sparse = st.sets(st.integers(0, full.bit_length() - 1), max_size=3).map(
        lambda vs: sum(1 << v for v in vs)
    )
    masks = draw(st.lists(st.one_of(st.just(0), sparse, st.integers(0, full)), max_size=10))
    cuts = st.one_of(st.just(full), st.just(0), st.integers(0, full))
    for k, cut in draw(st.lists(st.tuples(st.integers(0, 9), cuts), max_size=10 - len(masks))):
        if masks:
            masks.append(masks[k % len(masks)] & cut)
    return draw(st.permutations(masks))


@given(raw_member_families())
@example([0b1100, 0b0011, 0b0101, 0b0001])  # the path 3-2-0-1, links out of order
@example([0b011, 0b1100, 0, 0b1100])
@example([0, 0])
@settings(max_examples=300, deadline=None)
def test_connected_from_members_agrees_with_bfs_on_raw_families(members):
    facets = [[b for b in range(12) if m >> b & 1] for m in members if m]
    got = connected_from_members(members)
    assert (got is None) == (not any(members))
    assert got == brute_connected(facets)


@given(raw_member_families())
@example([0b0011, 0b1111, 0, 0b1111])  # a member equal to the union: a cone
@example([0b0111, 0b1110, 0b0001])  # a cone on vertices 1 and 2 once maximal
@example([0, 0])
@example([])
@settings(max_examples=100, deadline=None)
def test_sparse_ranks_equal_the_forced_routes_on_raw_families(members):
    # zero, repeated and nested masks reach the exit and the cone test of
    # ranks_from_members, and forced_ranks takes neither
    for field in (RATIONALS, PrimeField(2), PrimeField(3)):
        got = ranks_from_members(members, field)
        assert got == forced_ranks(members, "enumerate", field)
        assert got == forced_ranks(members, "nerve", field)


def test_enumeration_cap():
    with pytest.raises(ResourceLimit) as err:
        enumerate_face_masks([(1 << 30) - 1], max_faces=1000)
    assert err.value.cap == "max-faces"
    assert (err.value.estimate, err.value.limit) == (1 << 30, 1000)
    assert "estimate 1073741824, cap 1000" in str(err.value)


def test_enumeration_cap_reports_the_estimate_when_enumeration_overruns():
    members = [0b111111, 0b111111 << 6]  # 2 * 64 faces counting repeats
    with pytest.raises(ResourceLimit) as err:
        enumerate_face_masks(members, max_faces=100)
    assert (err.value.estimate, err.value.limit) == (128, 100)


def test_enumeration_cap_is_tested_once_per_member():
    # 8 faces of 0b111, then 0b1100 adds 0b1100 and 0b1000 (0b100 is listed)
    assert len(enumerate_face_masks([0b111, 0b1100], max_faces=10)) == 10
    with pytest.raises(ResourceLimit) as err:
        enumerate_face_masks([0b111, 0b1100], max_faces=9)
    assert (err.value.estimate, err.value.limit) == (12, 9)
    # a member with more faces than the cap trips it before it is listed
    with pytest.raises(ResourceLimit) as err:
        enumerate_face_masks([0b111], max_faces=7)
    assert (err.value.estimate, err.value.limit) == (8, 7)


def simplex_boundary(n):
    """Boundary of the simplex on n vertices: no vertex is dominated, so the
    strong-collapse core leaves it whole."""
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def test_nerve_cap_falls_back_to_enumeration():
    # boundary of the 5-simplex: over the enumeration budget, and the nerve
    # estimate (2^6) is below the face estimate (6 * 2^5), so the nerve route
    # is preferred but has more members than its cap allows
    members = simplex_boundary(6)
    tight = HomologyLimits(enumeration_budget=1, max_nerve_members=2)
    for field in (RATIONALS, PrimeField(2)):
        want = forced_ranks(members, "enumerate", field)
        assert want == {4: 1}
        assert ranks_from_members(members, field, tight) == want


def test_nerve_fallback_reports_the_face_cap():
    members = simplex_boundary(6)
    tight = HomologyLimits(max_faces=20, enumeration_budget=1, max_nerve_members=2)
    with pytest.raises(ResourceLimit) as err:
        ranks_from_members(members, RATIONALS, tight)
    assert err.value.cap == "max-faces"
    assert (err.value.estimate, err.value.limit) == (192, 20)
    # the nerve is enumerated as the transposed family, here the same
    # boundary, so its face cap reports that family's 6 * 2^5 estimate
    with pytest.raises(ResourceLimit) as err:
        forced_ranks(members, "nerve", RATIONALS, HomologyLimits(max_faces=3))
    assert (err.value.cap, err.value.estimate, err.value.limit) == ("max-faces", 192, 3)


def test_homology_respects_face_cap():
    big = cx(set(range(18)))
    tight = HomologyLimits(max_faces=100, enumeration_budget=1 << 20)
    with pytest.raises(ResourceLimit):
        forced_ranks(big.facet_masks, "enumerate", RATIONALS, tight)


# the fields the rank tests run over, each with its characteristic for the
# dense oracle; over GF(2) -1 is 1, and 2^61 - 1 is a large characteristic
RANK_FIELDS = (
    (RATIONALS, None),
    (PrimeField(2), 2),
    (PrimeField(3), 3),
    (PrimeField(5), 5),
    (PrimeField(2**61 - 1), 2**61 - 1),
)

# mask lists whose elimination takes a non-unit step, a*row - b*pivot, over
# the field named: a reduced column can lead with an entry other than +-1
NON_UNIT_OVER_Q = [14, 19, 25, 37, 42, 35, 22, 13, 7]
NON_UNIT_OVER_GF5 = [49, 67, 100, 38, 97, 21, 82, 50, 148, 7, 19]


def built_column(mask):
    """The boundary column of a face mask, {face mask: +-1}, signs
    alternating from the lowest vertex."""
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return {mask ^ (1 << b): (-1) ** pos for pos, b in enumerate(bits)}


def dense_boundary(masks):
    """The boundary matrix of the face masks, one dense row per mask, and its
    column keys: the faces one vertex smaller, in ascending mask order."""
    columns = [built_column(m) for m in masks]
    keys = sorted(set().union(*columns))
    return [[col.get(k, 0) for k in keys] for col in columns], keys


def test_rank_functions_match_dense_oracle():
    rng = random.Random(23)
    for _ in range(60):
        masks = [rng.randint(1, (1 << 6) - 1) for _ in range(rng.randint(1, 8))]
        dense, _ = dense_boundary(masks)
        for field, p in RANK_FIELDS:
            assert matrix_rank(masks, field, set()) == dense_rank(dense, p)


@given(st.lists(st.integers(1, (1 << 8) - 1), max_size=14))
@example(NON_UNIT_OVER_Q)
@example(NON_UNIT_OVER_GF5)
@settings(max_examples=200, deadline=None)
def test_rank_kernels_report_the_smallest_index_pivots(masks):
    # masks of any sizes in any order, repeats included: the pivots of a
    # smallest-key elimination are the pivot columns of the reduced row
    # echelon form of the matrix, whatever the order of its rows
    dense, keys = dense_boundary(masks)
    for field, p in RANK_FIELDS:
        want = {keys[k] for k in dense_pivot_columns(dense, p)}
        pivots = set()
        assert matrix_rank(masks, field, pivots) == len(want)
        assert pivots == want


@given(st.lists(st.integers(1, (1 << 7) - 1), max_size=14), st.randoms())
@settings(max_examples=200, deadline=None)
def test_mask_columns_rank_as_their_built_dict_columns(masks, rnd):
    # a mask column stands for its built dict column, -1 read mod p, and the
    # masks give the rank of the built columns, with the same pivot keys in
    # any order
    shuffled = masks[:]
    rnd.shuffle(shuffled)
    dense, _ = dense_boundary(masks)
    for field, p in RANK_FIELDS:
        for m in masks:
            built = {k: v % p if p else v for k, v in built_column(m).items()}
            assert _boundary(m, p or 0) == built
        want, got = set(), set()
        assert matrix_rank(masks, field, want) == dense_rank(dense, p)
        assert matrix_rank(shuffled, field, got) == len(want)
        assert got == want


def test_mask_columns_reach_the_non_unit_step():
    # a line tracer on the kernel itself sees the a*row line of the field run
    source, first = inspect.getsourcelines(matrix_rank)

    def line_of(text):
        (k,) = [k for k, line in enumerate(source) if text in line]
        return first + k

    for masks, field, step in (
        (NON_UNIT_OVER_Q, RATIONALS, line_of("a * vv for")),
        (NON_UNIT_OVER_GF5, PrimeField(5), line_of("a * vv % p")),
    ):
        seen = set()

        def spy(frame, event, arg):
            if frame.f_code is matrix_rank.__code__ and event == "line":
                seen.add(frame.f_lineno)
            return spy

        before = sys.gettrace()
        sys.settrace(spy)
        try:
            matrix_rank(masks, field, set())
        finally:
            sys.settrace(before)
        assert step in seen, field


def test_prime_field_is_fast_on_large_primes():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_prime_field_rejects_composites_and_huge_p():
    # a Carmichael number, and strong pseudoprimes to the bases 2..7 and 2..23
    for p in (0, 1, 4, 561, 3215031751, 3825123056546413051, (2**31 - 1) ** 2):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(p)
    for p in (2, 3, 41, 43, 2**31 - 1, 2**61 - 1, 2**79 - 67):
        assert PrimeField(p).p == p
    with pytest.raises(ValueError, match="3.3e24"):
        PrimeField(2**89 - 1)


def test_primality_matches_trial_division():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(5000):
        assert _is_prime(n) == naive(n), n


def test_parse_field():
    assert parse_field("rational") == RATIONALS
    assert parse_field("gf:5") == PrimeField(5)
    with pytest.raises(ValueError):
        parse_field("gf:6")
    with pytest.raises(ValueError):
        parse_field("float")


def test_limits_validation():
    with pytest.raises(ValueError, match="max_faces must be positive, got 0"):
        HomologyLimits(max_faces=0)
    with pytest.raises(ValueError, match="enumeration_budget must be positive, got -1"):
        HomologyLimits(enumeration_budget=-1)
