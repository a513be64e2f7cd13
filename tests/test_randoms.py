import random

import pytest

from lsquare import complexes as cx
from lsquare import l2
from lsquare.complexes import SimplicialComplex
from lsquare.labeled import LabeledComplex
from lsquare.monomials import MonomialIdeal, format_ideal, minimalize, parse_ideal
from lsquare.randoms import (
    SweepConfig,
    generator_triple_property,
    ideal_checks,
    partner_generator_property,
    random_squarefree_ideal,
    run_sweep,
    sample_ideal,
    sharpness_fixture_checks,
)


def test_random_ideals_are_minimal_and_squarefree():
    rng = random.Random(51)
    for _ in range(50):
        ideal = sample_ideal(rng, 7, 5)
        assert ideal.is_squarefree()
        assert len(minimalize(ideal.gens)) == ideal.q
        assert 1 <= ideal.q <= 5 and ideal.table.n <= 7


def test_sampling_is_deterministic():
    a = [format_ideal(sample_ideal(random.Random(7), 6, 4)) for _ in range(10)]
    b = [format_ideal(sample_ideal(random.Random(7), 6, 4)) for _ in range(10)]
    assert a == b


def test_infeasible_request_returns_none():
    # five pairwise incomparable subsets do not fit in two variables
    assert random_squarefree_ideal(random.Random(1), 2, 5) is None


def test_ideal_checks_pass_on_small_sample():
    rng = random.Random(52)
    for _ in range(15):
        ideal = sample_ideal(rng, 6, 4)
        results = ideal_checks(ideal)
        assert all(c.passed for c in results), [
            (c.name, c.detail) for c in results if not c.passed
        ]
        names = {c.name for c in results}
        assert {
            "square-size",
            "labels-match-square",
            "diagonal-survives",
            "quasi-forest",
            "support-connectivity",
            "support-homology",
            "bound-chain",
            "generator-power-triples",
            "irredundant-partner",
        } <= names


def test_sharpness_fixture_checks():
    results = sharpness_fixture_checks()
    assert all(c.passed for c in results)
    assert any(c.name == "sharpness-minimal" for c in results)


def test_sharpness_fixture_builds_one_square_and_one_l2(monkeypatch):
    counts = {"power": 0, "l2_of_ideal": 0}
    power, build = MonomialIdeal.power, l2.l2_of_ideal

    def counted_power(self, r):
        counts["power"] += 1
        return power(self, r)

    def counted_build(ideal):
        counts["l2_of_ideal"] += 1
        return build(ideal)

    monkeypatch.setattr(MonomialIdeal, "power", counted_power)
    monkeypatch.setattr(l2, "l2_of_ideal", counted_build)
    assert all(c.passed for c in sharpness_fixture_checks())
    assert counts == {"power": 1, "l2_of_ideal": 1}


def test_run_sweep_deterministic_and_empty():
    config = SweepConfig(seed=3, count=5, max_n=6, max_q=4)
    r1 = run_sweep(config)
    r2 = run_sweep(config)
    assert [i.ideal_text for i in r1.instances] == [i.ideal_text for i in r2.instances]
    assert r1.all_passed
    assert len(r1.instances) == 6  # fixture + 5 random

    empty = run_sweep(SweepConfig(seed=3, count=0))
    assert empty.instances == [] and empty.all_passed


def test_sweep_config_rejects_ranges_no_ideal_fits():
    # max_n = 0 once made sample_ideal loop forever, max_q = 0 crashed randrange
    for kwargs, flag in (
        ({"max_n": 0}, "--max-n"),
        ({"max_q": 0}, "--max-q"),
        ({"count": -1}, "--count"),
    ):
        with pytest.raises(ValueError, match=f"^{flag} must be >= "):
            SweepConfig(**kwargs)
    with pytest.raises(ValueError, match="^--max-n must be <= 26, got 27$"):
        SweepConfig(max_n=27)
    assert len(run_sweep(SweepConfig(count=2, max_n=1, max_q=9)).instances) == 3


def test_ideal_checks_reports_a_non_quasi_forest(monkeypatch):
    # L2(I) is always a quasi-forest, so pretend the test said otherwise: the
    # failure must be listed, not raised, and the other checks must still run.
    monkeypatch.setattr(cx, "quasi_forest_order", lambda delta: None)
    ideal, _ = parse_ideal("abe,bc,cdf,ad")
    results = {c.name: c for c in ideal_checks(ideal)}
    assert not results["quasi-forest"].passed
    assert not results["support-connectivity"].passed
    for name in ("support-homology", "bound-chain", "irredundant-partner"):
        assert results[name].passed, name


def test_ideal_checks_stops_when_the_labels_miss_a_square_generator(monkeypatch):
    # drop one more off-diagonal pair than l2_of_ideal does: the complex's
    # ideal then misses a minimal generator of the square, and nothing after
    # runs on it; at q = 4, position 1 of pairs_of is the pair (1, 2)
    real = l2.l2_of_ideal

    def short(ideal):
        lab, record = real(ideal)
        keep = lab.complex.vertices - {1}
        delta = SimplicialComplex.from_facets([f & keep for f in lab.complex.facets])
        labels = {k: lab.labels[k] for k in keep}
        square = MonomialIdeal.minimal(list(labels.values()))
        return LabeledComplex(delta, labels, square), record

    monkeypatch.setattr(l2, "l2_of_ideal", short)
    ideal, _ = parse_ideal("abe,bc,cdf,ad")
    results = ideal_checks(ideal)
    assert [c.name for c in results] == ["square-size", "labels-match-square"]
    assert results[0].passed and not results[1].passed
    assert results[1].detail == (
        "surviving labels disagree with the minimal generators of the square"
    )


def test_ideal_checks_reports_a_deleted_diagonal_pair(monkeypatch):
    # a deletion record that holds a diagonal pair raises DiagonalDeleted
    # where l2_of_ideal builds it; at q = 4, (2, 2) is position 4 of pairs_of
    real = l2.l2_of_ideal

    def diagonal(ideal):
        lab, record = real(ideal)
        return lab, l2.DeletionRecord(record.q, record.deleted | {(2, 2)})

    monkeypatch.setattr(l2, "l2_of_ideal", diagonal)
    ideal, _ = parse_ideal("abe,bc,cdf,ad")
    results = ideal_checks(ideal)
    assert [(c.name, c.passed) for c in results] == [
        ("square-size", True),
        ("diagonal-survives", False),
    ]
    assert results[1].detail == "diagonal pair (2,2) deleted"


def test_brute_generator_checks_name_the_first_witness():
    # (xy)^2 = x^2 * y^2: the square of generator 3 is the product of 1 and 2
    ideal, _ = parse_ideal("x^2,y^2,xy")
    result = generator_triple_property(ideal)
    assert not result.passed and result.detail == "i=3 r=2 indices=(1, 2)"
    assert partner_generator_property(ideal).passed
    sharp, _ = parse_ideal("xabc,yade,zbdf,wcef")
    assert generator_triple_property(sharp).passed
    assert partner_generator_property(sharp).passed
