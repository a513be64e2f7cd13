import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lsquare.complexes import SimplicialComplex, f_vector
from lsquare.homology import PrimeField, RATIONALS
from lsquare.l2 import l2_of_ideal, pairs_of
from lsquare.labeled import (
    LabeledComplex,
    NotQuasiForest,
    UnsupportedComplex,
    betti_numbers,
    labeled_from_json,
    labeled_to_json,
    supports_resolution_homological,
    supports_resolution_quasitree,
    taylor_complex,
)
from lsquare.monomials import (
    Monomial,
    MonomialIdeal,
    VariableTable,
    format_monomial,
    lcm_lattice,
    parse_ideal,
    parse_monomial,
)
from lsquare.randoms import random_squarefree_ideal, sample_ideal

from oracles import (
    betti_upper_bounds,
    brute_faces,
    is_connected,
    restrict_divides,
    restrict_strict,
    top_label,
    unmemoized_betti_numbers,
    variable,
    walk_support,
)

XYZ = VariableTable(("x", "y", "z"))


def mono(text, table=XYZ):
    return parse_monomial(text, table)


def labeled(delta, labels):
    """`delta` labeled by `labels`, whose ideal they generate minimally."""
    return LabeledComplex(delta, labels, MonomialIdeal.minimal(list(labels.values())))


def hollow_triangle_xyz():
    delta = SimplicialComplex.from_facets([{0, 1}, {1, 2}, {0, 2}])
    return labeled(delta, {0: mono("x"), 1: mono("y"), 2: mono("z")})


def figure_complex():
    """The two-dimensional quasi-tree labeled with the six quadrics in x, y, z."""
    delta = SimplicialComplex.from_facets(
        [{0, 1, 2}, {3, 1, 4}, {5, 2, 4}, {1, 2, 4}]
    )
    labels = {
        0: mono("x^2"),
        1: mono("xy"),
        2: mono("xz"),
        3: mono("y^2"),
        4: mono("yz"),
        5: mono("z^2"),
    }
    return labeled(delta, labels)


def test_labeled_complex_validates_labels():
    delta = SimplicialComplex.from_facets([{0, 1}])
    two = MonomialIdeal.minimal([mono("x"), mono("y")])
    with pytest.raises(ValueError, match="unlabeled vertices"):
        LabeledComplex(delta, {0: mono("x")}, two)
    with pytest.raises(ValueError, match=r"not in the complex: \[2\]"):
        LabeledComplex(delta, {0: mono("x"), 1: mono("y"), 2: mono("z")}, two)
    assert LabeledComplex(delta, {0: mono("y"), 1: mono("x")}, two).ideal is two
    # the labels must be the ideal's generators, one per vertex: a missing
    # generator, a repeated one, a foreign label (xy is not a minimal
    # generator of (x, y)) and a label over another table are refused
    path = SimplicialComplex.from_facets([{0, 1}, {1, 2}])
    three = MonomialIdeal.minimal([mono("x"), mono("y"), mono("z")])
    other = VariableTable(("x", "y", "w"))
    for complex_, labels, ideal in (
        (delta, {0: mono("x"), 1: mono("y")}, three),
        (delta, {0: mono("x"), 1: mono("x")}, two),
        (path, {0: mono("x"), 1: mono("y"), 2: mono("x")}, two),
        (delta, {0: mono("x"), 1: mono("xy")}, two),
        (delta, {0: mono("x"), 1: mono("y", other)}, two),
    ):
        with pytest.raises(ValueError, match="^vertex labels do not biject with"):
            LabeledComplex(complex_, labels, ideal)


def test_face_label_is_lcm():
    lab = figure_complex()
    assert lab.face_label({0, 1, 2}) == mono("x^2yz")
    assert lab.face_label(()) == XYZ.one()
    assert top_label(lab) == mono("x^2y^2z^2")


def test_taylor_complex_shapes():
    one, _ = parse_ideal("ab")
    t = taylor_complex(one)
    assert len(t.complex.vertices) == 1 and t.complex.dim == 0

    three, _ = parse_ideal("x,y,z")
    t3 = taylor_complex(three)
    assert f_vector(t3.complex) == (3, 3, 1)

    I, _ = parse_ideal("abe,bc,cdf,ad")
    t9 = taylor_complex(I.power(2))
    assert len(t9.complex.vertices) == 9 and len(t9.complex.facets) == 1


def test_taylor_complex_has_no_vertex_cap():
    # the vertex cap is the CLI's --max-taylor; the library builds any size
    table = VariableTable(tuple(f"x{k}" for k in range(23)))
    ideal = MonomialIdeal(table, tuple(variable(table, k) for k in range(23)))
    t = taylor_complex(ideal)
    assert len(t.complex.vertices) == 23 and len(t.complex.facets) == 1


def test_restrict_divides_examples():
    lab = figure_complex()
    everything = restrict_divides(lab, top_label(lab))
    assert everything == lab.complex

    # m = x^2yz keeps x^2, xy, xz and also yz (yz divides x^2yz)
    sub = restrict_divides(lab, mono("x^2yz"))
    assert {format_monomial(lab.labels[v]) for v in sub.vertices} == {
        "x^2", "xy", "xz", "yz",
    }
    assert sorted(len(f) - 1 for f in sub.facets) == [2, 2]

    # in the deleted running-example complex, only the first square divides itself
    I, _ = parse_ideal("abe,bc,cdf,ad")
    labI, _ = l2_of_ideal(I)
    m1sq = I.gens[0] * I.gens[0]
    point = restrict_divides(labI, m1sq)
    assert len(point.vertices) == 1
    assert labI.labels[next(iter(point.vertices))] == m1sq


def test_restrict_strict_examples():
    # a single labeled point: nothing strictly divides its own label
    point = labeled(SimplicialComplex.from_facets([{0}]), {0: mono("xy")})
    strict = restrict_strict(point, mono("xy"))
    assert not strict.vertices and not strict.is_void

    # hollow triangle: every face label strictly divides xyz
    tri = hollow_triangle_xyz()
    assert restrict_strict(tri, mono("xyz")) == tri.complex

    # taylor complex of (x, y): the edge is labeled xy and drops out
    two, _ = parse_ideal("x,y")
    t = taylor_complex(two)
    strict = restrict_strict(t, parse_monomial("xy", two.table))
    assert sorted(len(f) for f in strict.facets) == [1, 1]


def assert_masks_match_oracles(lab, tag):
    # the labels are coded as the ideal's generators, whatever the vertex order
    ideal = lab.ideal
    by_label = dict(zip(ideal.gens, ideal.encoding[0]))
    assert lab._codes[0] == [by_label[lab.labels[v]] for v in lab.complex.ids], tag

    verts = sorted(lab.complex.vertices)
    facet_masks = lab.complex.facet_masks

    def vertices_of(mask):
        return [verts[b] for b in range(len(verts)) if mask >> b & 1]

    for code in ideal.sorted_lattice:
        m = ideal.decode(code)
        vm = lab._divisor_mask(code)
        want = restrict_divides(lab, m)
        assert set(vertices_of(vm)) == want.vertices, (tag, m)
        got = [vertices_of(fm & vm) for fm in facet_masks]
        assert brute_faces(got) == brute_faces(want.facets), (tag, m)
        want = restrict_strict(lab, m)
        got = [vertices_of(mask) for mask in lab._strict_members(code)]
        assert brute_faces(got) == brute_faces(want.facets), (tag, m)


def test_mask_restrictions_agree_with_the_oracles():
    # the divisor and strictly-below restrictions that the support criteria
    # and the Betti pass build from codes, against explicit faces filtered by
    # label, at every lattice point: L2(I) of square-free ideals, the figure
    # complex, and Taylor complexes of ideals with exponents up to 6.  L2(I)
    # keeps the last pair of equal products, the square the first, so on the
    # 4-cycle ab,bc,cd,da (ab * cd = bc * da) their orders differ
    rng = random.Random(41)
    texts = ("abe,bc,cdf,ad", "xy,yz,zx", "ab,bc,cd,de,ea", "ab,bc,cd,da")
    ideals = [parse_ideal(t)[0] for t in texts]
    ideals += [sample_ideal(rng, 6, 4) for _ in range(3)]
    reordered = 0
    for ideal in ideals:
        lab, _ = l2_of_ideal(ideal)
        square = lab.ideal
        assert square.gens == ideal.power(2).gens
        reordered += [lab.labels[v] for v in lab.complex.ids] != list(square.gens)
        assert_masks_match_oracles(lab, str(ideal))
    assert reordered

    assert_masks_match_oracles(figure_complex(), "figure")

    table = VariableTable(tuple("abcd"))
    top = 0
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(2, 6)):
            exps = [rng.randint(0, 6) for _ in range(4)]
            exps[rng.randrange(4)] = rng.randint(1, 6)
            gens.append(Monomial(table, tuple(exps)))
        ideal = MonomialIdeal.minimal(gens)
        top = max(top, *(max(g.exponents) for g in ideal.gens))
        assert_masks_match_oracles(taylor_complex(ideal), str(ideal))
    assert top > 2


def test_support_quasitree_examples():
    I, _ = parse_ideal("abe,bc,cdf,ad")
    labI, _ = l2_of_ideal(I)
    assert supports_resolution_quasitree(labI).supported
    assert supports_resolution_quasitree(figure_complex()).supported

    # a path plus an isolated vertex misses the connectivity test at m = xz
    # (and at m = yz); any witness must name a genuinely disconnected restriction
    path = labeled(
        SimplicialComplex.from_facets([{0, 1}, {2}]),
        {0: mono("x"), 1: mono("y"), 2: mono("z")},
    )
    report = supports_resolution_quasitree(path)
    assert not report.supported
    assert format_monomial(report.witness) in {"xz", "yz"}
    bad = restrict_divides(path, report.witness)
    assert bad.vertices and not is_connected(bad)


def test_support_quasitree_rejects_non_quasi_forests():
    with pytest.raises(NotQuasiForest):
        supports_resolution_quasitree(hollow_triangle_xyz())


def test_support_criteria_reject_label_mismatch():
    # the criteria take a labeled complex alone, and no labeled complex, built
    # or loaded from JSON, has labels other than its ideal's generators
    two, _ = parse_ideal("x,y")
    delta = SimplicialComplex.from_facets([{0, 1}, {1, 2}])
    labels = {0: mono("x", two.table), 1: mono("y", two.table), 2: mono("x", two.table)}
    with pytest.raises(ValueError, match="do not biject"):
        LabeledComplex(delta, labels, two)
    obj = {"facets": [[0, 1], [1, 2]], "labels": {"0": "x", "1": "y", "2": "x"}}
    with pytest.raises(ValueError, match="do not biject"):
        labeled_from_json(obj, two)


def test_support_homological_examples():
    rng = random.Random(31)
    for _ in range(10):
        ideal = sample_ideal(rng, 6, 4)
        assert supports_resolution_homological(taylor_complex(ideal)).supported

    report = supports_resolution_homological(hollow_triangle_xyz())
    assert not report.supported
    assert format_monomial(report.witness) == "xyz" and report.witness_dim == 1

    J, _ = parse_ideal("x,y,z,w")
    labJ, _ = l2_of_ideal(J)
    assert supports_resolution_homological(labJ).supported


def test_betti_numbers_figure_complex():
    lab = figure_complex()
    assert betti_upper_bounds(lab).as_vector() == [6, 9, 4]
    table = betti_numbers(lab)
    assert table.as_vector() == [6, 8, 3]
    assert table.as_vector(5) == [6, 8, 3, 0, 0, 0]


def test_betti_numbers_reject_unsupported():
    with pytest.raises(UnsupportedComplex) as err:
        betti_numbers(hollow_triangle_xyz())
    assert format_monomial(err.value.witness) == "xyz"


def test_betti_total_zero_is_generator_count():
    rng = random.Random(32)
    for _ in range(10):
        ideal = sample_ideal(rng, 6, 4)
        table = betti_numbers(taylor_complex(ideal))
        assert table.total[0] == ideal.q
        assert table.total[0] == sum(
            r for (d, _m), r in table.graded.items() if d == 0
        )


def test_graded_carries_only_lattice_multidegrees():
    ideal, _ = parse_ideal("x,y,z")
    table = betti_numbers(taylor_complex(ideal))
    lattice = {ideal.decode(code) for code in lcm_lattice(ideal)}
    assert all(m in lattice for (_d, m) in table.graded)


def test_betti_vanishes_off_the_lattice():
    # spot check: scanning every divisor of the top lcm finds strictly-below
    # homology only at lattice points.  The formula is only meaningful where
    # some generator divides m (otherwise the restriction is the bare empty
    # face); the oracle never evaluates it elsewhere.
    ideal, _ = parse_ideal("xy,yz,zx")
    lab = taylor_complex(ideal)
    lattice = lcm_lattice(ideal)
    top = top_label(lab)
    from itertools import product

    from lsquare.homology import ranks_from_members

    for exps in product(*(range(e + 1) for e in top.exponents)):
        m = Monomial(ideal.table, exps)
        if not any(g.divides(m) for g in ideal.gens):
            continue
        # each variable has the levels 0 and 1, so its lane is one bit
        code = int("".join(map(str, exps)), 2)
        assert ideal.decode(code) == m
        ranks = ranks_from_members(lab._strict_members(code))
        nonzero = {d: r for d, r in ranks.items() if r}
        if code not in lattice:
            assert not nonzero, (m, nonzero)


def test_oracle_equivalence_between_complexes():
    rng = random.Random(33)
    for _ in range(15):
        ideal = sample_ideal(rng, 6, 4)
        square = ideal.power(2)
        labL, _ = l2_of_ideal(ideal)
        for field in (RATIONALS, PrimeField(2)):
            a = betti_numbers(labL, field)
            b = betti_numbers(taylor_complex(square), field)
            assert a.total == b.total
            assert a.graded == b.graded


FIVE = VariableTable(tuple("abcde"))


def exponent_rows(top, max_size=5):
    """Up to `max_size` generators in five variables, exponents at most `top`."""
    row = st.tuples(*[st.integers(0, top)] * 5).filter(any)
    return st.lists(row, min_size=1, max_size=max_size)


def ideal_of(rows):
    return MonomialIdeal.minimal([Monomial(FIVE, r) for r in rows])


@given(exponent_rows(1), exponent_rows(2))
@settings(max_examples=25, deadline=None)
def test_memoized_betti_numbers_equal_the_unmemoized_loop(squarefree, rows):
    ideal = ideal_of(squarefree)
    cases = (
        l2_of_ideal(ideal)[0],
        taylor_complex(ideal.power(2)),
        taylor_complex(ideal_of(rows)),
    )
    for field in (RATIONALS, PrimeField(2), PrimeField(3)):
        for lab in cases:
            got = betti_numbers(lab, field)
            want = unmemoized_betti_numbers(lab, field)
            assert got.total == want.total
            assert got.graded == want.graded


def test_betti_numbers_rank_each_core_once_per_call(monkeypatch):
    import lsquare.homology as hml

    calls = []
    real = hml.ranks_from_face_masks

    def spy(faces, field):
        calls.append(len(faces))
        return real(faces, field)

    monkeypatch.setattr(hml, "ranks_from_face_masks", spy)
    ideal, _ = parse_ideal("a,b,c,d,e")
    taylor = taylor_complex(ideal)
    # the 26 restrictions at lcms of two to five variables are simplex
    # boundaries, one core per size
    first = betti_numbers(taylor)
    assert len(calls) == 4
    # the memo does not outlive the call
    second = betti_numbers(taylor)
    assert len(calls) == 8
    assert first.as_vector() == second.as_vector() == [5, 10, 10, 5, 1]


def test_one_facet_support_check_ranks_nothing_but_checks_labels(monkeypatch):
    import lsquare.homology as hml

    calls = []
    real = hml.ranks_from_members

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hml, "ranks_from_members", spy)
    ideal, _ = parse_ideal("abe,bc,cdf,ad")
    square = ideal.power(2)
    q8 = random_squarefree_ideal(random.Random(11), 10, 8)
    # a simplex is its own hub, and L2(I)'s hub is its off-diagonal facet
    for lab in (taylor_complex(square), l2_of_ideal(ideal)[0], l2_of_ideal(q8)[0]):
        assert supports_resolution_homological(lab).supported
    assert calls == []
    # the labels are checked when the complex is made: Taylor's of I labeled
    # by the square, and L2(I) labeled by I
    taylor, l2 = taylor_complex(ideal), l2_of_ideal(ideal)[0]
    with pytest.raises(ValueError, match="do not biject"):
        LabeledComplex(taylor.complex, taylor.labels, square)
    with pytest.raises(ValueError, match="do not biject"):
        LabeledComplex(l2.complex, l2.labels, ideal)
    # no facet of the hollow triangle holds the three shared vertices
    assert not supports_resolution_homological(hollow_triangle_xyz()).supported
    assert calls


def assert_certificate_is_the_walk(lab):
    """The hub certificate reports what `oracles.walk_support` does, and ranks
    no restriction."""
    import lsquare.homology as hml

    def no_ranks(*args, **kwargs):
        raise AssertionError("a complex with a hub ranked a restriction")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hml, "ranks_from_members", no_ranks)
        report = supports_resolution_homological(lab)
    assert (report.supported, report.witness, report.witness_dim) == walk_support(lab)


@st.composite
def hub_complexes(draw):
    """A complex whose vertices outside the hub lie in one facet each, labeled
    by the minimal generators of an ideal with exponents 0..2."""
    ideal = ideal_of(draw(exponent_rows(2, max_size=6)))
    gens = draw(st.permutations(ideal.gens))
    every = range(len(gens))
    hub = draw(st.sets(st.sampled_from(every)))
    private: dict[int, set[int]] = {}
    for v in every:
        if v not in hub:
            private.setdefault(draw(st.integers(0, 2)), set()).add(v)
    facets = [hub] + [p | draw(st.sets(st.sampled_from(every))) & hub for p in private.values()]
    delta = SimplicialComplex.from_facets(facets)
    return LabeledComplex(delta, dict(enumerate(gens)), ideal)


def path_xyz():
    """The path x - y - z: its hub is either edge, and it fails at xz."""
    delta = SimplicialComplex.from_facets([{0, 1}, {1, 2}])
    return labeled(delta, {0: mono("x"), 1: mono("y"), 2: mono("z")})


@given(hub_complexes())
@example(path_xyz())
@settings(max_examples=60, deadline=None)
def test_hub_certificate_equals_the_lattice_walk(lab):
    assert_certificate_is_the_walk(lab)


def l2_part(ideal, keep):
    """The rows and the off-diagonal set of L2(I) cut to the vertices `keep`,
    labeled by the ideal of their labels.  The off-diagonal pairs are the vertices
    shared by two facets, so the cut has a hub."""
    lab, _ = l2_of_ideal(ideal)
    pairs = pairs_of(ideal.q)
    rows = [{k for k in keep if i in pairs[k]} for i in range(1, ideal.q + 1)]
    off_diagonal = {k for k in keep if len(set(pairs[k])) == 2}
    delta = SimplicialComplex.from_facets([*rows, off_diagonal])
    labels = {k: lab.labels[k] for k in keep}
    return labeled(delta, labels)


@st.composite
def l2_parts(draw):
    ideal = ideal_of(draw(exponent_rows(1)))
    ids = l2_of_ideal(ideal)[0].complex.ids
    return l2_part(ideal, draw(st.sets(st.sampled_from(ids), min_size=1, max_size=7)))


@given(l2_parts())
# two diagonal vertices, x^2 and y^2, are two points apart
@example(l2_part(parse_ideal("x,y,z")[0], {0, 3}))
@settings(max_examples=40, deadline=None)
def test_hub_certificate_equals_the_walk_on_parts_of_l2(lab):
    assert_certificate_is_the_walk(lab)


def test_criteria_agree_on_random_quasi_forests():
    from lsquare.complexes import quasi_forest_order

    rng = random.Random(34)
    found = 0
    while found < 25:
        nf = rng.randint(1, 5)
        facets = [
            frozenset(rng.sample(range(6), rng.randint(1, 3))) for _ in range(nf)
        ]
        delta = SimplicialComplex.from_facets(facets)
        if quasi_forest_order(delta) is None:
            continue
        found += 1
        table = VariableTable(tuple("abcdef"))
        labels = {
            v: Monomial(
                table,
                tuple(
                    1 if rng.random() < 0.5 else 0 for _ in range(6)
                ),
            )
            for v in delta.vertices
        }
        for v in labels:
            if labels[v].is_one:
                labels[v] = variable(table, rng.randrange(6))
        try:
            ideal = MonomialIdeal.minimal(list(labels.values()))
        except ValueError:
            continue
        if ideal.q != len(labels):
            continue
        lab = LabeledComplex(delta, labels, ideal)
        conn = supports_resolution_quasitree(lab)
        homo = supports_resolution_homological(lab)
        assert conn.supported == homo.supported, (facets, labels)


def test_fixture_examples_are_field_independent():
    # the worked examples have the same Betti tables over Q, GF(2), and GF(3);
    # random inputs are compared per-field elsewhere instead of assumed equal
    fields = (RATIONALS, PrimeField(2), PrimeField(3))
    tables = [betti_numbers(figure_complex(), f) for f in fields]
    assert tables[0].total == tables[1].total == tables[2].total

    for text in ("x,y,z,w", "abe,bc,cdf,ad", "xabc,yade,zbdf,wcef"):
        ideal, _ = parse_ideal(text)
        lab, _ = l2_of_ideal(ideal)
        tables = [betti_numbers(lab, f) for f in fields]
        assert tables[0].total == tables[1].total == tables[2].total
        assert tables[0].graded == tables[1].graded == tables[2].graded


def test_field_round_trip_and_betti_json():
    table = betti_numbers(figure_complex())
    obj = table.to_json()
    assert obj["total"] == {str(d): r for d, r in table.total.items()}
    assert {(e["d"], e["m"]): e["rank"] for e in obj["graded"]} == {
        (d, str(m)): r for (d, m), r in table.graded.items()
    }


def test_labeled_json_round_trip():
    # 200 draws give L2(I) complexes whose vertex ids have gaps after the
    # deletions; build-l2 adds "pairs" and "deletion", which are ignored
    rng = random.Random(7)
    gaps = 0
    for _ in range(200):
        ideal = sample_ideal(rng, 7, 6)
        l2, record = l2_of_ideal(ideal)
        pairs = pairs_of(ideal.q)
        extra = {
            "pairs": {str(k): list(pairs[k]) for k in l2.complex.ids},
            "deletion": record.to_json(),
        }
        gaps += l2.complex.ids != tuple(range(len(l2.complex.ids)))
        for lab in (l2, taylor_complex(ideal)):
            text = json.dumps(labeled_to_json(lab))
            for obj in (json.loads(text), {**json.loads(text), **extra}):
                again = labeled_from_json(obj, lab.ideal)
                assert again.complex == lab.complex, ideal
                assert dict(again.labels) == dict(lab.labels), ideal
                assert json.dumps(labeled_to_json(again)) == text, ideal
    assert gaps


def test_json_round_trip():
    abc = VariableTable(("a", "b", "c"))
    delta = SimplicialComplex.from_facets([{1, 2}, {3}])
    labels = {1: mono("a", abc), 2: mono("b", abc), 3: mono("c", abc)}
    lab = labeled(delta, labels)
    obj = labeled_to_json(lab)
    assert obj["labels"] == {"1": "a", "2": "b", "3": "c"}
    back = labeled_from_json(obj, lab.ideal)
    assert back.complex == delta
    assert {v: str(m) for v, m in back.labels.items()} == {1: "a", 2: "b", 3: "c"}


def test_json_restores_isolated_vertices():
    obj = {
        "vertices": [1, 2, 5],
        "facets": [[1, 2]],
        "labels": {"1": "x", "2": "y", "5": "z"},
    }
    back = labeled_from_json(obj, parse_ideal("x,y,z")[0])
    assert back.complex.vertices == {1, 2, 5}


def test_json_facets_print_in_vertex_order_not_mask_order():
    # over ids (1, 2, 3) the mask of {2} is below that of {1, 3}
    delta = SimplicialComplex.from_facets([{1, 3}, {2}])
    labels = {1: mono("x"), 2: mono("y"), 3: mono("z")}
    assert labeled_to_json(labeled(delta, labels))["facets"] == [[1, 3], [2]]
