"""Acceptance suite: every stated criterion, checked exactly (integer equality).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The 500-ideal seeded sweep is computed once per session (see conftest.py).
"""

import contextlib
import random

from lsquare.complexes import (
    SimplicialComplex,
    f_vector,
    quasi_forest_order,
)
from lsquare.homology import PrimeField, RATIONALS
from lsquare.l2 import (
    deletion_face_bound,
    l2_of_ideal,
    taylor_face_bound,
)
from lsquare.labeled import (
    LabeledComplex,
    betti_numbers,
    taylor_complex,
)
from lsquare.monomials import parse_ideal, parse_monomial

from oracles import (
    backtrack_leaf_order,
    betti_upper_bounds,
    graded_monomials,
    is_chordal_clique_complex,
    l2_skeleton,
    variables_ideal,
    verify_leaf_order,
)

SUBSAMPLE_SEED = 815


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def figure_complex_and_ideal():
    ideal, _ = parse_ideal("x^2,y^2,z^2,xy,xz,yz")
    table = ideal.table

    def mono(s):
        return parse_monomial(s, table)

    delta = SimplicialComplex.from_facets([{0, 1, 2}, {3, 1, 4}, {5, 2, 4}, {1, 2, 4}])
    labels = {
        0: mono("x^2"),
        1: mono("xy"),
        2: mono("xz"),
        3: mono("y^2"),
        4: mono("yz"),
        5: mono("z^2"),
    }
    return LabeledComplex(delta, labels, ideal), ideal


def test_criterion_1_quadrics_example():
    with criterion(1, "six-quadrics example: bounds (6,9,4), betti (6,8,3)"):
        lab, ideal = figure_complex_and_ideal()
        assert betti_upper_bounds(lab) == [6, 9, 4]
        table = betti_numbers(lab)
        assert table.as_vector(6) == [6, 8, 3, 0, 0, 0, 0]


def test_criterion_2_four_variables(four_variables_ideal):
    with criterion(2, "J=(x,y,z,w): s=10, betti (10,20,15,4), skeleton f-vector"):
        J = four_variables_ideal
        J2 = J.power(2)
        assert J2.q == 10
        beta = betti_numbers(taylor_complex(J2))
        assert beta.as_vector() == [10, 20, 15, 4]
        labJ, record = l2_of_ideal(J)
        assert labJ.complex == l2_skeleton(4) and not record.deleted
        fv = f_vector(labJ.complex)
        assert fv == (10, 27, 32, 19, 6, 1)
        assert all(
            beta.total.get(d, 0) <= (fv[d] if d < len(fv) else 0) for d in range(8)
        )


def test_criterion_3_running_example(running_ideal):
    with criterion(3, "I=(abe,bc,cdf,ad): deletion, f-vector, betti, Taylor row"):
        I = running_ideal
        square = I.power(2)
        assert square.q == 9
        lab, record = l2_of_ideal(I)
        assert len(record.deleted) == 1
        (gone,) = record.deleted
        assert gone == (1, 3)
        assert I.gens[0] * I.gens[2] not in set(lab.labels.values())
        assert sorted(len(f) - 1 for f in lab.complex.facets) == [2, 2, 3, 3, 4]
        fv = f_vector(lab.complex)
        assert fv == (9, 20, 18, 7, 1)
        assert [deletion_face_bound(record, d) for d in range(5)] == list(fv)
        beta = betti_numbers(lab)
        assert beta.as_vector(3) == [9, 14, 6, 0]
        assert [taylor_face_bound(square.q, d) for d in range(7)] == [
            9, 36, 84, 126, 126, 84, 36,
        ]


def test_criterion_4_support_sweep(sweep_ideals, sweep_results):
    with criterion(4, "both support criteria pass on 500 seeded random ideals"):
        assert len(sweep_ideals) == 500
        for ideal, checks in zip(sweep_ideals, sweep_results):
            by_name = {c.name: c for c in checks}
            assert by_name["support-connectivity"].passed, str(ideal)
            assert by_name["support-homology"].passed, str(ideal)


def test_criterion_5_bound_sweep(sweep_ideals, sweep_results):
    with criterion(
        5, "betti <= refined bound = enumerated f-vector <= skeleton bound on 500 ideals"
    ):
        for ideal, checks in zip(sweep_ideals, sweep_results):
            by_name = {c.name: c for c in checks}
            assert by_name["bound-chain"].passed, (str(ideal), by_name["bound-chain"].detail)


def test_criterion_6_sharpness(sharpness_ideal):
    with criterion(6, "sharpness ideal: no deletions, betti equals skeleton f-vector"):
        lab, record = l2_of_ideal(sharpness_ideal)
        assert not record.deleted
        beta = betti_numbers(lab)
        skeleton_fv = f_vector(l2_of_ideal(variables_ideal(4))[0].complex)
        assert beta.as_vector() == [10, 27, 32, 19, 6, 1]
        assert beta.as_vector() == list(skeleton_fv)


def test_criterion_7_structural(sweep_ideals, sweep_results):
    with criterion(
        7, "skeleton leaf orders q=1..8, generator properties on 500 ideals, "
        "quasi-forest peel agrees with backtracking and chordal oracles "
        "on 200 complexes"
    ):
        for q in range(1, 9):
            order = quasi_forest_order(l2_of_ideal(variables_ideal(q))[0].complex)
            assert order is not None and verify_leaf_order(order)
        for ideal, checks in zip(sweep_ideals, sweep_results):
            by_name = {c.name: c for c in checks}
            assert by_name["generator-power-triples"].passed, str(ideal)
            assert by_name["irredundant-partner"].passed, str(ideal)
        rng = random.Random(SUBSAMPLE_SEED)
        for _ in range(200):
            facets = [
                frozenset(rng.sample(range(8), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            delta = SimplicialComplex.from_facets(facets)
            peeled = quasi_forest_order(delta) is not None
            assert peeled == (backtrack_leaf_order(delta.facets) is not None), facets
            assert peeled == is_chordal_clique_complex(delta.facets), facets


def test_criterion_8_oracle_equivalence(sweep_ideals, running_ideal, four_variables_ideal, sharpness_ideal):
    with criterion(
        8, "Taylor-route and specialized-complex Betti tables agree "
        "(totals and graded, rationals and GF(2))"
    ):
        fields = (RATIONALS, PrimeField(2))

        def assert_equivalent(lab, ideal):
            for field in fields:
                ours = betti_numbers(lab, field)
                taylor = betti_numbers(taylor_complex(ideal), field)
                assert ours.total == taylor.total, str(ideal)
                assert graded_monomials(ours) == graded_monomials(taylor), str(ideal)

        lab1, ideal1 = figure_complex_and_ideal()
        assert_equivalent(lab1, ideal1)
        for base in (four_variables_ideal, running_ideal, sharpness_ideal):
            lab, _ = l2_of_ideal(base)
            assert_equivalent(lab, base.power(2))

        rng = random.Random(SUBSAMPLE_SEED)
        for ideal in rng.sample(sweep_ideals, 100):
            lab, _ = l2_of_ideal(ideal)
            assert_equivalent(lab, ideal.power(2))
