"""Third route to the Betti numbers, via order complexes of the lcm lattice.

For each lattice multidegree m, beta_{d,m} equals the reduced homology rank
in dimension d-1 of the order complex of the open divisor interval below m
(vertices: lattice elements strictly dividing m; faces: chains).  This shares
no machinery with the strictly-below restriction used by the production
oracle, so agreement pins both the formula and its implementation.
"""

import random

from lsquare.complexes import SimplicialComplex
from lsquare.labeled import betti_numbers, taylor_complex
from lsquare.monomials import lcm_lattice, parse_ideal
from lsquare.randoms import sample_ideal

from oracles import graded_monomials, reduced_homology_ranks


def order_complex_graded_betti(ideal):
    lattice = [ideal.decode(code) for code in lcm_lattice(ideal)]
    graded = {}
    for m in lattice:
        below = [a for a in lattice if a != m and a.divides(m)]
        verts = {a: i for i, a in enumerate(below)}
        # maximal chains of the open interval, grown element by element
        chains = [[a] for a in below]
        maximal = []
        while chains:
            grown = []
            for ch in chains:
                extensions = [
                    b for b in below if ch[-1] != b and ch[-1].divides(b)
                ]
                if extensions:
                    grown.extend(ch + [b] for b in extensions)
                else:
                    maximal.append(ch)
            chains = grown
        facets = [frozenset(verts[a] for a in ch) for ch in maximal] or [frozenset()]
        ranks = reduced_homology_ranks(SimplicialComplex.from_facets(facets))
        for d, r in ranks.items():
            if r:
                graded[(d + 1, m)] = r
    return graded


def test_order_complex_route_matches_oracle_on_fixtures():
    for text in ("x,y", "xy,yz,zx", "abe,bc,cdf,ad", "x^2,y^2,z^2,xy,xz,yz"):
        ideal, _ = parse_ideal(text)
        expected = graded_monomials(betti_numbers(taylor_complex(ideal)))
        assert order_complex_graded_betti(ideal) == expected, text


def test_order_complex_route_matches_oracle_on_squares():
    for text in ("x,y,z", "ab,bc,ca"):
        square = parse_ideal(text)[0].power(2)
        expected = graded_monomials(betti_numbers(taylor_complex(square)))
        assert order_complex_graded_betti(square) == expected, text


def test_order_complex_route_matches_oracle_on_random_ideals():
    rng = random.Random(61)
    for _ in range(12):
        ideal = sample_ideal(rng, 5, 4)
        expected = graded_monomials(betti_numbers(taylor_complex(ideal)))
        assert order_complex_graded_betti(ideal) == expected, str(ideal)
