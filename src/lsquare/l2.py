"""The pair complexes L2_q and L2(I), deletion bookkeeping, and face-count bounds.

L2_q lives on the index pairs 1 <= i <= j <= q, each a plain (i, j) tuple,
named as a vertex by its position in `pairs_of(q)` throughout.  Its facets
are one "row" per index i (all pairs containing i) plus the set of all
off-diagonal pairs; for q <= 2 the off-diagonal set is swallowed by the rows.
Labeling pair (i, j) of L2_q with the product of generators i and j of a
square-free ideal I, and keeping the vertices whose products
`monomials.minimalize` keeps, the last of equal products, gives L2(I): the
induced subcomplex of L2_q on those vertices, whose labels are exactly the
minimal generators of I^2.  `l2_of_ideal` builds L2(I) directly on its
surviving pairs; L2_q is L2 of the ideal of q distinct variables, where no
pair product is redundant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex
from .homology import DEFAULT_LIMITS, Field, HomologyLimits, RATIONALS
from .labeled import (
    BettiTable,
    LabeledComplex,
    UnsupportedComplex,
    betti_numbers,
    supports_resolution_homological,
    taylor_complex,
)
from .monomials import MonomialIdeal, minimalize


def pairs_of(q: int) -> list[tuple[int, int]]:
    """The pairs (i, j), 1 <= i <= j <= q, as tuples in lexicographic order; a
    pair's position in this list is its vertex id in every complex built here."""
    return [(i, j) for i in range(1, q + 1) for j in range(i, q + 1)]


@dataclass(frozen=True)
class DeletionRecord:
    """The pairs deleted when specializing the skeleton to an ideal, as (i, j)
    tuples of `pairs_of(q)`; none is diagonal, so each has 1 <= i < j <= q."""

    q: int
    deleted: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.deleted:
            if not 1 <= i < j <= self.q:
                raise ValueError(f"deleted pair ({i},{j}) needs 1 <= i < j <= {self.q}")

    @property
    def s(self) -> int:
        """Number of surviving vertices = minimal generators of the square."""
        return comb(self.q + 1, 2) - len(self.deleted)

    @property
    def t(self) -> tuple[int, ...]:
        """t[i-1] counts deleted pairs containing index i; sums to 2x deletions."""
        counts = [0] * self.q
        for i, j in self.deleted:
            counts[i - 1] += 1
            counts[j - 1] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        return {
            "deleted": sorted([i, j] for i, j in self.deleted),
            "s": self.s,
            "t": list(self.t),
        }


def l2_of_ideal(ideal: MonomialIdeal) -> tuple[LabeledComplex, DeletionRecord]:
    """L2(I): the labeled induced subcomplex of the skeleton on the pairs that
    survive for a square-free ideal, built on those pairs directly.

    Each pair product g_i * g_j is computed once, into one list in the order
    of `pairs_of(q)`, whose positions are the vertex ids: vertex k is labeled
    from products[k].  The vertices kept are the products `minimalize` keeps;
    of equal products the last position is kept, so the smaller position,
    whose pair is the lexicographically smaller, is deleted.  No diagonal pair
    is ever deleted (asserted here).  By the paper's lemma the surviving
    labels are exactly the minimal generators of I^2; the square itself is
    not built here.  Every support criterion and `betti_numbers` check the
    labels against the caller's square, and `verify` reports the comparison
    as `labels-match-square`.
    """
    for g in ideal.gens:
        if not g.is_squarefree():
            raise ValueError(f"generator {g} is not square-free")
    q = ideal.q
    pairs = pairs_of(q)
    gens = ideal.gens
    products = [gens[i - 1] * gens[j - 1] for i, j in pairs]
    last = {p: k for k, p in enumerate(products)}
    kept = {last[p] for p in minimalize(products)}
    deleted = [k for k in range(len(pairs)) if k not in kept]
    if any(pairs[k][0] == pairs[k][1] for k in deleted):
        raise AssertionError("a diagonal product compared equal or divisible")
    record = DeletionRecord(q, frozenset(pairs[k] for k in deleted))

    # every diagonal pair is kept, so no row is empty and no vertex is lost;
    # the off-diagonal set may be empty or a face of a row (always for q <= 2)
    rows: list[set[int]] = [set() for _ in range(q)]
    off_diagonal: set[int] = set()
    for k in kept:
        i, j = pairs[k]
        rows[i - 1].add(k)
        rows[j - 1].add(k)
        if i != j:
            off_diagonal.add(k)
    sub = SimplicialComplex.from_facets([*rows, off_diagonal])
    labels = {k: products[k] for k in sorted(kept)}
    return LabeledComplex(sub, labels, ideal.table), record


def square_betti_numbers(
    lab: LabeledComplex,
    square: MonomialIdeal,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> BettiTable:
    """Betti numbers of the square once `lab`, its L2(I), is checked to support it.

    The check is the paper's theorem, and a failure raises UnsupportedComplex.
    Betti numbers are invariants of the square, so any supporting complex
    gives them; they are read off the Taylor complex, whose strictly-below
    restriction at m is a union of at most |supp m| simplexes, one per
    variable of m, where L2(I) has one per facet and variable.
    """
    report = supports_resolution_homological(lab, square, field, limits)
    if not report.supported:
        raise UnsupportedComplex(report.witness, report.witness_dim)
    return betti_numbers(taylor_complex(square), square, field, limits)


# ---------------------------------------------------------------------------
# Face-count bounds.
# ---------------------------------------------------------------------------


def _comb0(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def skeleton_face_bound(q: int, d: int) -> int:
    """d-face count of the skeleton: C(q(q-1)/2, d+1) + q*C(q-1, d)."""
    return _comb0(q * (q - 1) // 2, d + 1) + q * _comb0(q - 1, d)


def deletion_face_bound(record: DeletionRecord, d: int) -> int:
    """d-face count of the specialized complex: C(s-q, d+1) + sum_i C(q-1-t_i, d).

    Faces without a diagonal vertex are arbitrary sets of surviving off-diagonal
    pairs; faces with the diagonal vertex of index i extend it by surviving
    pairs in row i.
    """
    return _comb0(record.s - record.q, d + 1) + sum(
        _comb0(record.q - 1 - ti, d) for ti in record.t
    )


def taylor_face_bound(vertices: int, d: int) -> int:
    """d-face count of a simplex on the given number of vertices."""
    if vertices < 1:
        raise ValueError("vertex count must be >= 1")
    return _comb0(vertices, d + 1)


@dataclass
class BoundTable:
    """Comparison of Betti-number bounds for the square of an ideal, by degree."""

    q: int
    s: int
    t: tuple[int, ...]
    max_d: int
    rows: list[tuple[str, list[int]]]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "s": self.s,
            "t": list(self.t),
            "d": list(range(self.max_d + 1)),
            "rows": {label: values for label, values in self.rows},
        }


def bound_table(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    include_exact: bool = True,
    max_d: int | None = None,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> BoundTable:
    """Taylor bounds, skeleton bound, deletion-refined bound and (optionally)
    the exact Betti numbers of the square, tabulated for d = 0..max_d.

    max_d runs from 0 to C(q+1, 2), the vertex count of the largest Taylor
    simplex; every row is zero past it.  It defaults to max(C(q, 2), q)."""
    q = ideal.q
    if max_d is None:
        max_d = max(comb(q, 2), q)
    elif not 0 <= max_d <= comb(q + 1, 2):
        raise ValueError(f"max_d must be in 0..{comb(q + 1, 2)} for q = {q}, got {max_d}")
    lab, record = l2_of_ideal(ideal)
    ds = range(max_d + 1)
    rows: list[tuple[str, list[int]]] = [
        ("taylor-largest", [taylor_face_bound(q * (q + 1) // 2, d) for d in ds]),
        ("taylor", [taylor_face_bound(record.s, d) for d in ds]),
        ("skeleton", [skeleton_face_bound(q, d) for d in ds]),
        ("complex", [deletion_face_bound(record, d) for d in ds]),
    ]
    if include_exact:
        table = square_betti_numbers(lab, ideal.power(2), field, limits)
        rows.append(("betti", table.as_vector(max_d)))
    return BoundTable(q, record.s, record.t, max_d, rows)
