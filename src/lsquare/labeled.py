"""Monomial-labeled complexes, support criteria, and the exact Betti oracle.

A labeled complex carries a monomial ideal and one of its minimal generators
per vertex, each generator on exactly one vertex; a face is labeled by the
lcm of its vertex labels.  Such a complex "supports a free resolution" of its
ideal exactly when, for every multidegree m in the lcm lattice, the
subcomplex induced on the vertices whose labels divide m is empty or acyclic.
For quasi-forests the acyclicity can be replaced by mere connectivity, a
second, independent route to the verdict, which also cross-checks the label
test that decides a complex with a hub facet without the lattice (the proof
is in `supports_resolution_homological`).  The multigraded Betti numbers are
then read off the supported complex: beta_{d,m} is the reduced homology rank
in dimension d-1 of the subcomplex of faces whose label strictly divides m.

The walks take the complex alone and read its ideal's lattice points as the
codes of `ideal.encoding`, one int each.  They cut each restriction out of
the facet masks with one table per complex that maps each code bit to the
vertices whose label code holds it, and decode into a `Monomial` only a
support witness or a multidegree with a nonzero Betti number.

`labeled_to_json` and `labeled_from_json` are the one writer and reader of
the complex file that `--complex` takes and `build-l2 --format json` writes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from . import complexes as cx
from . import homology as hml
from .complexes import SimplicialComplex
from .homology import DEFAULT_LIMITS, Field, HomologyLimits, RATIONALS
from .monomials import Monomial, MonomialIdeal, parse_monomial


class NotQuasiForest(ValueError):
    """The connectivity criterion only applies to quasi-forests."""


class UnsupportedComplex(ValueError):
    """The complex fails the support criterion; carries the witness."""

    def __init__(self, witness: Monomial, witness_dim: int | None):
        where = f" (homology in dimension {witness_dim})" if witness_dim is not None else ""
        super().__init__(f"complex does not support a resolution: witness {witness}{where}")
        self.witness = witness
        self.witness_dim = witness_dim


@dataclass(frozen=True, eq=True)
class LabeledComplex:
    """A complex whose vertices are labeled by the minimal generators of
    `ideal`, one generator per vertex; the constructor enforces the pairing."""

    complex: SimplicialComplex
    labels: Mapping[int, Monomial]
    ideal: MonomialIdeal

    def __post_init__(self):
        labels = dict(self.labels)
        object.__setattr__(self, "labels", MappingProxyType(labels))
        missing = self.complex.vertices - labels.keys()
        if missing:
            raise ValueError(f"unlabeled vertices: {sorted(missing)}")
        stray = labels.keys() - self.complex.vertices
        if stray:
            raise ValueError(f"labels for vertices not in the complex: {sorted(stray)}")
        if len(labels) != self.ideal.q or set(labels.values()) != set(self.ideal.gens):
            raise ValueError(
                "vertex labels do not biject with the ideal's minimal generators"
            )

    def face_label(self, face: Iterable[int]) -> Monomial:
        m = self.ideal.table.one()
        for v in face:
            m = m.lcm(self.labels[v])
        return m

    @cached_property
    def _codes(self) -> tuple[list[int], list[tuple[int, int]], int]:
        """The labels' codes, looked up in `ideal.encoding`, in sorted vertex
        order as in `SimplicialComplex.facet_masks`; each code bit with the
        mask of the vertices whose label code holds it; and the mask of each
        lane's top bit.  The ideal's lattice points are ors of the same codes."""
        gen_codes, lanes = self.ideal.encoding
        by_label = dict(zip(self.ideal.gens, gen_codes))
        codes = [by_label[self.labels[v]] for v in self.complex.ids]
        tops = sum(1 << mask.bit_length() - 1 for mask, _ in lanes if mask)
        table = [(1 << b, sum(1 << k for k, c in enumerate(codes) if c >> b & 1))
                 for b in range(tops.bit_length())]
        return codes, table, tops

    def _divisor_mask(self, m: int) -> int:
        """V(m): the vertices whose label divides the lattice point with code
        m, that is whose label code holds no bit outside m."""
        mask = (1 << len(self.complex.ids)) - 1
        for bit, holders in self._codes[1]:
            if not m & bit:
                mask &= ~holders
        return mask

    def _strict_members(self, m: int) -> list[int]:
        """Vertex masks of simplexes whose union is the strictly-below subcomplex.

        Write X_{<=m} (X_{<m}) for the faces whose label divides (strictly
        divides) m.  Then

            X_{<m} = union of X_{<=m/x_p} over p in supp(m).

        Proof: if lcm(F) divides m and differs from it, then lcm(F)_p < m_p for
        some p, so p is in supp(m) and lcm(F) divides m/x_p.  Conversely, if
        lcm(F) divides m/x_p with m_p > 0, it divides m and falls short of m
        in variable p.  A face label divides m' exactly when every vertex label
        of the face does, so X_{<=m'} is the subcomplex induced on V(m'),
        spanned by the facets cut down to V(m').  On codes, lane p of m is
        2^r - 1 for the rank r of m_p, and a label's exponent in p is at least
        m_p iff its lane holds bit r - 1, m's top bit in lane p: a bit of m
        that is its lane's highest or has no bit of m above it.  So V(m/x_p)
        is V(m) less the vertices that hold that bit.
        """
        _, table, lane_tops = self._codes
        vm = self._divisor_mask(m)
        tops = m & (~(m >> 1) | lane_tops)
        below = [vm & ~holders for bit, holders in table if tops & bit]
        return [fm & b for fm in self.complex.facet_masks for b in below]


def taylor_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """The full simplex on the minimal generators, vertex i labeled by generator i;
    uncapped (the CLI's `--max-taylor` caps only its Taylor default complex)."""
    facet = frozenset(range(ideal.q))
    return LabeledComplex(
        SimplicialComplex.from_facets([facet]),
        {k: g for k, g in enumerate(ideal.gens)},
        ideal,
    )


@dataclass(frozen=True)
class SupportReport:
    supported: bool
    criterion: str
    witness: Monomial | None = None
    witness_dim: int | None = None

    def __str__(self) -> str:
        if self.supported:
            return f"PASS ({self.criterion})"
        extra = f", homology dim {self.witness_dim}" if self.witness_dim is not None else ""
        return f"FAIL ({self.criterion}; witness {self.witness}{extra})"


def supports_resolution_quasitree(lab: LabeledComplex) -> SupportReport:
    """Connectivity criterion: every lcm-lattice restriction is empty or connected.

    Only valid on quasi-forests; anything else is rejected so it stays clear
    which criterion produced the verdict.  It walks every lattice point, also
    where the acyclicity criterion has a hub certificate, so that in
    `check-support` and `verify` it checks that certificate independently.
    """
    if cx.quasi_forest_order(lab.complex) is None:
        raise NotQuasiForest(
            "connectivity criterion is inapplicable: the complex is not a quasi-forest"
        )
    ideal, facet_masks = lab.ideal, lab.complex.facet_masks
    for m in ideal.sorted_lattice:
        vm = lab._divisor_mask(m)
        verdict = hml.connected_from_members([fm & vm for fm in facet_masks])
        if verdict is False:
            return SupportReport(False, "quasi-forest connectivity", witness=ideal.decode(m))
    return SupportReport(True, "quasi-forest connectivity")


def _hub(facet_masks: tuple[int, ...]) -> int | None:
    """A facet holding every vertex that lies in two or more facets, or None.

    A lone facet is a hub, and so is every facet of a complex whose facets
    are disjoint.  L2(I)'s hub is its off-diagonal set, or a row when the
    surviving off-diagonal pairs all lie in it (always for q <= 2)."""
    seen = shared = 0
    for fm in facet_masks:
        shared |= seen & fm
        seen |= fm
    return next((fm for fm in facet_masks if not shared & ~fm), None)


def _hub_witness(lab: LabeledComplex, hub: int) -> int | None:
    """The code of the sort-first lattice point whose restriction has two or
    more pieces, or None; the proof is in `supports_resolution_homological`.

    Labels are read as `LabeledComplex._codes`: the code of lcm(l_v, l_u) is
    c_v | c_u, and codes order as `Monomial.sort_key` does."""
    codes = lab._codes[0]
    at = range(len(codes))
    failing = [
        codes[v] | codes[u]
        for fm in lab.complex.facet_masks
        for v in at if (fm & ~hub) >> v & 1
        for u in at if not fm >> u & 1 and not fm & hub & lab._divisor_mask(codes[v] | codes[u])
    ]
    return min(failing, default=None)


def supports_resolution_homological(
    lab: LabeledComplex,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> SupportReport:
    """Acyclicity criterion: every lcm-lattice restriction is empty or acyclic.

    A complex with a hub H, a facet that holds every vertex lying in two or
    more facets (`_hub`), is decided by label tests on vertex pairs, with no
    lattice walk and no rank; it reports what the walk would.  Proof: write
    W = V(m) for the vertices whose labels divide a lattice point m, and f_v
    for the one facet that holds a vertex v outside H.

    - A facet f != H that meets H & W collapses into the simplex H & W.
      Each vertex v of f & W outside H lies in f alone, so f & W is the one
      maximal face holding v in the restriction, and v is dominated by a
      vertex of f & H & W; deleting a dominated vertex is a strong collapse
      (Barmak-Minian 2012, as in `homology.strong_core`).
    - A facet f whose restriction misses H is a simplex apart from
      everything else, since its vertices lie in f alone.
    - So the restriction collapses to disjoint simplexes, one per piece: it
      is acyclic iff it has exactly one piece, and otherwise only its
      reduced H_0 is nonzero.
    - It has two or more pieces iff W holds a vertex v outside H with
      f_v & W & H empty and a vertex u outside f_v.  W shrinks as m does,
      so such a pair also fails at m' = lcm(l_v, l_u), a lattice point that
      divides m.  Hence X supports the ideal iff no pair v outside H, u
      outside f_v has f_v & H & V(lcm(l_v, l_u)) empty.
    - A failing point is divisible by a failing lcm(l_v, l_u), and a divisor
      comes first in `Monomial.sort_key` order.  So the sort-first failing
      pair lcm is the walk's witness, in dimension 0.

    A lone facet is a hub with no vertex outside it, so a simplex passes.  A
    complex with no hub, such as a hollow triangle, is walked: each
    restriction at a point of the lcm lattice is ranked with
    `homology.ranks_from_members`.  `supports_resolution_quasitree` walks
    every point whatever the complex, so `check-support` and `verify`
    cross-check the certificate on every quasi-forest, L2(I) among them.
    """
    ideal, facet_masks = lab.ideal, lab.complex.facet_masks
    name = f"homological over {field}"
    hub = _hub(facet_masks)
    if hub is not None:
        witness = _hub_witness(lab, hub)
        if witness is None:
            return SupportReport(True, name)
        return SupportReport(False, name, witness=ideal.decode(witness), witness_dim=0)
    for m in ideal.sorted_lattice:
        vm = lab._divisor_mask(m)
        members = [fm & vm for fm in facet_masks]
        if not any(members):
            continue
        ranks = hml.ranks_from_members(members, field, limits)
        if ranks:
            return SupportReport(False, name, witness=ideal.decode(m), witness_dim=min(ranks))
    return SupportReport(True, name)


@dataclass
class BettiTable:
    """Total and multigraded Betti numbers; zero entries are dropped."""

    total: dict[int, int]
    graded: dict[tuple[int, Monomial], int]

    def __post_init__(self):
        self.total = {d: r for d, r in self.total.items() if r}
        self.graded = {k: r for k, r in self.graded.items() if r}

    @property
    def max_d(self) -> int:
        return max(self.total, default=-1)

    def as_vector(self, upto: int | None = None) -> list[int]:
        top = self.max_d if upto is None else upto
        return [self.total.get(d, 0) for d in range(top + 1)]

    def to_json(self) -> dict:
        return {
            "total": {str(d): r for d, r in sorted(self.total.items())},
            "graded": [
                {"d": d, "m": str(m), "rank": r}
                for (d, m), r in sorted(
                    self.graded.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())
                )
            ],
        }


def betti_numbers(
    lab: LabeledComplex,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> BettiTable:
    """Multigraded Betti numbers of `lab.ideal` read off a supporting complex.

    beta_{d,m} = rank of reduced homology in dimension d-1 of the subcomplex of
    faces with label strictly dividing m, for m running over the lcm lattice
    (all other multidegrees contribute zero).  The homological support
    criterion is verified first and a failure raises UnsupportedComplex.

    Restrictions whose strong-collapse cores are equal after renumbering are
    ranked once: the call keeps one `ranks_from_members` memo, which is
    dropped when it returns.  The walk reads the lattice as codes and
    decodes only a multidegree with a nonzero entry.
    """
    report = supports_resolution_homological(lab, field, limits)
    if not report.supported:
        raise UnsupportedComplex(report.witness, report.witness_dim)
    ideal = lab.ideal
    graded: dict[tuple[int, Monomial], int] = {}
    total: dict[int, int] = {}
    memo: dict = {}
    for code in ideal.sorted_lattice:
        # all-zero member masks mean only the empty face survives, giving the
        # rank-1 contribution at homological dimension -1 (so beta_{0,m} = 1)
        ranks = hml.ranks_from_members(lab._strict_members(code), field, limits, memo)
        if ranks:
            m = ideal.decode(code)
            for d, r in ranks.items():
                graded[(d + 1, m)] = r
                total[d + 1] = total.get(d + 1, 0) + r
    return BettiTable(total, graded)


# JSON: {"vertices": [...], "facets": [[...]], "labels": {"id": "monomial"}}.


def labeled_to_json(lab: LabeledComplex) -> dict:
    ids = lab.complex.ids
    return {
        "vertices": list(ids),
        "facets": [sorted(f) for f in lab.complex.facets],
        "labels": {str(v): str(lab.labels[v]) for v in ids},
    }


def _vertex_id(v) -> int:
    """A JSON integer, or a string of an optional '-' and ASCII digits, as a
    vertex id; 0.7 is not read as 0, true as 1, nor "1_0" as 10."""
    integral = type(v) is int or type(v) is float and v.is_integer()
    if integral or type(v) is str and re.fullmatch("-?[0-9]+", v):
        return int(v)
    raise ValueError(f"vertex id {v!r} is not an integer")


def _array(value, read) -> list:
    """read(x) for each x of a JSON array; a string or an object is not one."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not an array")
    return [read(x) for x in value]


def _entry(obj: Mapping, key: str, read, default=None):
    """read(obj[key]), or `default` when the key is absent or null; an entry
    of the wrong shape is a ValueError naming its key."""
    try:
        return default if obj.get(key) is None else read(obj[key])
    except (TypeError, ValueError, AttributeError, OverflowError):
        raise ValueError(f"complex JSON has a malformed {key!r} entry") from None


def labeled_from_json(obj: Mapping, ideal: MonomialIdeal) -> LabeledComplex:
    """The complex a `labeled_to_json` object describes, labeled by the
    minimal generators of `ideal`; a declared vertex in no facet is isolated,
    a singleton facet, label keys naming one vertex clash, and unknown keys
    are ignored."""
    if not isinstance(obj, Mapping) or obj.get("facets") is None:
        raise ValueError("complex JSON must be an object with a 'facets' entry")
    facets = _entry(obj, "facets", lambda fs: _array(fs, lambda f: _array(f, _vertex_id)))
    points = _entry(obj, "vertices", lambda vs: _array(vs, lambda v: [_vertex_id(v)]), [])
    raw = _entry(obj, "labels", lambda raw: {_vertex_id(k): str(v) for k, v in raw.items()})
    if raw is None:
        raise ValueError("labeled complex JSON requires a 'labels' entry")
    if len(raw) < len(obj["labels"]):
        count = Counter(map(_vertex_id, obj["labels"]))
        clash = [k for k in obj["labels"] if count[_vertex_id(k)] > 1]
        raise ValueError(f"complex JSON label keys {clash} name one vertex")
    try:
        labels = {v: parse_monomial(s, ideal.table) for v, s in raw.items()}
    except ValueError as exc:
        raise ValueError(f"complex JSON has a malformed 'labels' entry: {exc}") from None
    return LabeledComplex(SimplicialComplex.from_facets(facets + points), labels, ideal)
