"""Exact reduced simplicial homology over the rationals or a prime field.

The engine works on bitmasks: a complex is handed over as a list of "member"
masks, each the vertex set of a simplex, whose union is the complex (the facet
list is always such a family).  Three steps are used, cheapest first:

* exit: a family with no vertex is answered at once;
* strong-collapse core: dominated vertices are deleted until none is left
  (a vertex common to all maximal members, a cone, is the one-step case,
  tested first); a core that is a single simplex is acyclic;
* face enumeration of the core or of its transposed family (`_transpose`),
  whose faces form the nerve of the core, whichever has the smaller
  face-count estimate.  All nonempty intersections of simplexes on vertex
  subsets are simplexes, hence contractible, so the nerve has the same
  reduced homology.  The faces get sparse boundary matrices and exact ranks
  with one fraction-free elimination for every field (`matrix_rank`, on face
  masks: integer rows over Q, rows reduced mod p over GF(p); a face's column
  is built only when a column reduces against it), from the top dimension
  down, leaving out every column that a pivot of the map above already shows
  to be dependent (clearing: a reduced column of d_d with smallest key c has
  zero boundary, so d(c) is a combination of the d(s) with s > c; the full
  proof is in `ranks_from_face_masks`).

Connectivity lists no faces either: each nonzero member is a simplex, so the
union is connected iff the members' intersection graph is, and
`connected_from_members` grows one component by OR-ing in every member mask
that meets it (the proof is in its docstring).

A core is ranked with its vertices renumbered 0..k-1 in increasing order,
which is the transpose of its transpose (the proof is in `_transpose`).  The
renumbering maps faces to faces and keeps the order of every face's vertices,
so the boundary matrices of two cores that renumber alike are equal entry for
entry, signs included, and so are their ranks over every field.  A caller
that ranks many restrictions (`labeled.betti_numbers`) passes one memo for
the length of its call, keyed by the core's transpose: that is also the
transpose of the renumbered core, and the renumbered core is its transpose,
so each determines the other.  An equal core met again is not renumbered,
enumerated or ranked a second time.

`ranks_from_members` and `ranks_from_face_masks` return the nonzero ranks
only, as a dict {dimension: rank}: an acyclic complex and the void complex
(no faces at all) give {}, and the complex whose only face is the empty set
gives {-1: 1}.  Most restrictions of a lattice walk are acyclic, and the
cones among them, a member equal to the whole union included, leave at the
first step of the core.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, or_


class ResourceLimit(RuntimeError):
    """A configurable resource cap was exceeded.

    `cap` names the knob, `limit` is its value and `estimate` is the size that
    tripped it, in the same unit; the message says how far over the cap it was.
    """

    def __init__(self, message: str, cap: str, estimate: int, limit: int):
        over = f": {estimate / limit:.1f}x the cap" if limit > 0 else ""
        super().__init__(f"{message} (estimate {estimate}, cap {limit}{over})")
        self.cap = cap
        self.estimate = estimate
        self.limit = limit


@dataclass(frozen=True)
class HomologyLimits:
    """Caps and routing thresholds for homology computations.

    `max_faces` is the hard cap on enumerated faces; `enumeration_budget` is
    the face-count estimate up to which direct enumeration is always used
    (above it, the smaller of enumeration and nerve reduction is chosen).
    Families of more than `max_nerve_members` members are always enumerated,
    so `max_faces` is the only cap a routed computation can hit.
    """

    max_faces: int = 1 << 22
    enumeration_budget: int = 512
    max_nerve_members: int = 40

    def __post_init__(self):
        for name in ("max_faces", "enumeration_budget"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_LIMITS = HomologyLimits()


@dataclass(frozen=True)
class RationalField:
    def __str__(self) -> str:
        return "rational"


# Miller-Rabin with the prime bases up to 41 is exact below
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017);
# characteristics are capped just under that.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_CHARACTERISTIC = 33 * 10**23


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases above, exact for n < _MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p >= _MAX_CHARACTERISTIC:
            raise ValueError(f"gf:p needs p < 3.3e24, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return f"gf:{self.p}"


RATIONALS = RationalField()

Field = RationalField | PrimeField


def parse_field(spec: str) -> Field:
    s = spec.strip().lower()
    if s in ("rational", "rationals", "qq", "q"):
        return RATIONALS
    if s.startswith("gf:") and s[3:].isdecimal():
        return PrimeField(int(s[3:]))
    raise ValueError(f"unknown field spec {spec!r} (use 'rational' or 'gf:p')")


# ---------------------------------------------------------------------------
# Sparse exact ranks.  Matrices arrive as lists of columns; rank is side
# agnostic, so columns are processed as if they were rows.
# ---------------------------------------------------------------------------


def matrix_rank(columns: list[int], field: Field, pivots: set[int]) -> int:
    """Rank over `field` of the boundary matrix whose columns are given as
    nonzero face masks; a mask stands for the boundary of its face, whose
    entry at the mask minus its i-th lowest set bit is (-1)^i, counting from
    i = 0.  Row keys are face masks, ordered as integers.

    One fraction-free elimination (Bareiss, Math. Comp. 22, 1968) serves every
    field.  Each column is reduced against the stored pivots until its
    smallest key is new, and is then stored under that key; the rank is the
    number of pivots, and each pivot key is added to `pivots`.  With a
    and b the leading entries of the pivot and the column, a column is
    reduced by row - (b/a)*pivot when a is -1 or 1, and by a*row - b*pivot
    otherwise; scaling a column by a nonzero a keeps the span, so no fraction
    arises.  Over Q every a*row - b*pivot, and every column stored after a
    reduction step, is divided by the gcd of its entries.  That division only
    keeps the integers small (a nonzero multiple of a column spans the same
    line).  Over GF(p) every entry is kept in 0..p-1, so entries that vanish
    mod p drop out, and -1 is p - 1: with p = 0 standing for Q, a is -1 or 1
    exactly when it is p - 1 or 1.  Scaling GF(p) pivots to leading entry 1
    was measured to be slower, since most columns of a boundary matrix become
    pivots after few steps.

    Columns are built lazily, as the apparent pivots of Ripser (Bauer,
    J. Appl. Comput. Topol. 5, 2021).  Proof that this changes no step.
    Write t for the top bit of a face mask.  Each key of its boundary column
    but mask - t still holds t, so it exceeds mask - t, whose bits all lie
    below t: mask - t is the smallest key, with entry +1 or -1.  Built at
    once, as `_boundary` builds it (-1 written p - 1, nonzero mod every p),
    the column would find no pivot at mask - t when that key is new, take no
    reduction step, and be stored as it stands.  The loop stores the mask
    there instead.  A stored pivot is read only when a later column reduces
    against it, and only then is the mask built; `_boundary` depends on the
    mask and p alone, so the column read is the one the eager loop would
    have stored, entry for entry.  Before that read only the key is used, and
    it is the same.  So every reduction step, the rank and the pivot keys are
    those of the loop that builds every column on arrival; a pivot that no
    column reaches is never built.  A column that is built finds a pivot at
    its smallest key, so it takes at least one step before it is stored.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    reduced: dict[int, dict[int, int] | int] = {}
    for column in columns:
        c = column ^ 1 << column.bit_length() - 1
        if c not in reduced:
            reduced[c] = column
            continue
        row = _boundary(column, p)
        while row:
            c = min(row)
            piv = reduced.get(c)
            if piv is None:
                reduced[c] = row if p else _primitive(row)
                break
            if isinstance(piv, int):
                piv = reduced[c] = _boundary(piv, p)
            a, f = piv[c], row[c]
            unit = a == 1 or a == p - 1
            if unit:
                f *= a  # b/a, since a*a is 1
            elif p:
                row = {cc: a * vv % p for cc, vv in row.items()}
            else:
                row = {cc: a * vv for cc, vv in row.items()}
            for cc, vv in piv.items():
                w = row.get(cc, 0) - f * vv
                if p:
                    w %= p
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
            if row and not unit and not p:
                row = _primitive(row)
    pivots.update(reduced)
    return len(reduced)


def _boundary(mask: int, p: int) -> dict[int, int]:
    """The boundary column of a face mask: the mask minus its i-th lowest set
    bit maps to (-1)^i, written p - 1 for -1 (p = 0 for Q)."""
    signs = (1, p - 1)
    col, odd, rest = {}, 0, mask
    while rest:
        low = rest & -rest
        col[mask ^ low] = signs[odd]
        odd ^= 1
        rest ^= low
    return col


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


# ---------------------------------------------------------------------------
# Faces and boundary matrices on bitmasks.
# ---------------------------------------------------------------------------


def estimated_face_count(members: list[int]) -> int:
    return sum(1 << m.bit_count() for m in members)


def enumerate_face_masks(members: list[int], max_faces: int) -> set[int]:
    """All submasks of all members (the faces of the union complex), deduplicated.
    The cap is tested after each member; one with more faces than the cap trips
    it unlisted (its faces are distinct), so the set stays under twice the cap."""
    estimate = estimated_face_count(members)
    cap = ("max-faces", estimate, max_faces)
    if estimate > 64 * max_faces:
        raise ResourceLimit("face enumeration would exceed the face cap", *cap)
    faces: set[int] = set()
    for m in members:
        if 1 << m.bit_count() > max_faces:
            break
        sub = m
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
        if len(faces) > max_faces:
            break
    else:
        return faces
    raise ResourceLimit("face enumeration exceeded the face cap", *cap)


def ranks_from_face_masks(faces: set[int], field: Field) -> dict[int, int]:
    """The nonzero reduced homology ranks {dimension: rank} of a subset-closed
    face family (given as masks); {} when it has no face or is acyclic.

    The boundary maps are ranked from the top dimension down, with clearing
    (Chen and Kerber, Persistent homology computation with a twist, EuroCG
    2011; Bauer, Kerber and Reininghaus, Clear and compress, 2014): a
    (d-1)-face that is a pivot of the reduced boundary map d_d is left out as
    a column of d_{d-1}, and the rank of d_{d-1} is the rank of the columns
    that are kept.  Each kept face goes to `matrix_rank` as its mask, which
    stands for its boundary column; each face is its own row key, ordered by
    mask value, and `matrix_rank` pivots every reduced column on its smallest
    key (the proof below needs only some fixed total order on the rows).

    Proof that clearing keeps the rank, over Q and every GF(p) alike.
    A reduced column R of d_d with pivot c is a combination of boundaries, so
    R = b_c*c + sum over s > c of b_s*s with b_c != 0, and d(R) = 0 since
    d_{d-1} d_d = 0.  So d(c) lies in the span of the d(s) with s > c.  Going
    down the pivots from the largest, each s > c is either kept or a pivot
    already shown to lie in the span of the kept columns, so every cleared
    column lies in the span of the kept ones.
    """
    if not faces:
        return {}
    by_dim: dict[int, list[int]] = defaultdict(list)
    for f in faces:
        by_dim[f.bit_count() - 1].append(f)
    top = max(by_dim)

    boundary_rank: dict[int, int] = {}
    cleared: set[int] = set()
    for d in range(top, -1, -1):
        columns = [mask for mask in by_dim[d] if mask not in cleared]
        cleared = set()
        boundary_rank[d] = matrix_rank(columns, field, cleared)

    return {
        d: r
        for d in range(-1, top + 1)
        if (r := len(by_dim[d]) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0))
    }


# ---------------------------------------------------------------------------
# The member-family engine.
# ---------------------------------------------------------------------------


def maximal_masks(members) -> list[int]:
    """The nonzero masks not inside another one, deduplicated, in ascending order.

    A mask inside another is inside a maximal one of at least its size, so
    each mask is only tested against the maximal masks kept before it, largest
    first.
    """
    keep: list[int] = []
    for m in sorted(set(filter(None, members)), key=int.bit_count, reverse=True):
        for k in keep:
            if m & k == m:
                break
        else:
            keep.append(m)
    keep.sort()
    return keep


def _transpose(members) -> list[int]:
    """For each vertex of the union, in increasing order, the mask of the
    members that hold it (bit j for `members[j]`).

    The nerve.  Write T_v for the mask of the members holding vertex v.  A
    subfamily S of the members has a common vertex v exactly when every
    member of S holds v, that is when S is a submask of T_v.  So the nerve of
    the family (its subfamilies with a common vertex, and the empty one) is
    the union of the simplexes on the T_v: its faces are the submasks of
    `maximal_masks(_transpose(members))`, the empty face included, and
    `enumerate_face_masks` lists them.

    The renumbering.  Row j of the transpose belongs to vertex j of the union,
    counted in increasing order.  Transposing again lists each nonzero member,
    in order, as the mask of the rows j whose vertex it holds.  That is the
    member with its vertices renumbered 0..k-1 in increasing order.
    """
    out = []
    rest = reduce(or_, members, 0)
    while rest:
        low = rest & -rest
        row = 0
        for j, m in enumerate(members):
            if m & low:
                row |= 1 << j
        out.append(row)
        rest ^= low
    return out


def strong_core(members: list[int]) -> list[int]:
    """The strong-collapse core of the union of simplexes on `members`.

    `members` is a nonempty list of maximal masks (as `maximal_masks` returns
    them), and so is the result.  A vertex v is dominated when some other vertex v' lies
    in every member that contains v (Barmak and Minian, Strong homotopy types,
    nerves and collapses, Discrete Comput. Geom. 47, 2012).  Dominated
    vertices are deleted one at a time until none is left, so a single edge
    keeps one of its two vertices.

    Deleting a dominated vertex v keeps the reduced homology over every
    field.  Write K = (K - v) u st(v), with K - v the subcomplex induced on the
    other vertices and st(v) the closed star of v; then st(v) n (K - v) =
    lk(v).  A face t of lk(v) lies with v in some facet, which also holds v',
    so t u {v'} is in lk(v): the link is a cone on v'.  The star is a cone on
    v.  Both are acyclic with any coefficients, so the reduced Mayer-Vietoris
    sequence of K = (K - v) u st(v) gives H~_d(K - v) = H~_d(K) for every d,
    over Q, GF(2) and every GF(p) alike.

    The first step is the cone test: a vertex c common to all members
    dominates every other vertex, and the core is the point {c}.  Otherwise
    each pass takes, for every vertex, the AND of the members containing it,
    and walks the vertices in order.  With D the vertices deleted so far in
    the pass, that AND minus D lies inside the vertex's current star (current
    facets are maximal among the member masks minus D), so a vertex whose AND
    minus D holds another vertex is dominated and is deleted.  The pass ends
    with `maximal_masks` on the members minus D; the core is reached when a
    pass deletes nothing.
    """
    live = list(members)
    while True:
        common = reduce(and_, live)
        if common:
            return [common & -common]
        dead = 0
        rest = reduce(or_, live)
        while rest:
            low = rest & -rest
            star = -1
            for m in live:
                if m & low:
                    star &= m
            if star & ~dead != low:
                dead |= low
            rest ^= low
        if not dead:
            return live
        live = maximal_masks([m & ~dead for m in live])


def ranks_from_members(
    members,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
    memo: dict | None = None,
) -> dict[int, int]:
    """The nonzero reduced homology ranks {dimension: rank} of the union of
    simplexes on the given vertex masks: {} for an acyclic union and for the
    void complex (no members), {-1: 1} for the empty one (only zero masks).

    One exit comes first: no vertex gives {-1: 1}.  Otherwise the members are
    cut to `maximal_masks` and shrunk to their `strong_core`, which has the
    same reduced homology and whose first step is the cone test (a member
    equal to the union makes a cone); a core that is one simplex is
    acyclic.  The core's vertices are renumbered 0..k-1 in increasing order,
    and whichever of the core and its transposed family (its nerve) has the
    smaller face-count estimate is enumerated, the core on a tie.  The core
    is always enumerated when its estimate is at most
    `limits.enumeration_budget` or it has more than `limits.max_nerve_members`
    members.

    `memo`, when given, maps the transpose of each core, which fixes the
    renumbered core and is fixed by it, to the nonzero ranks of its faces,
    and a core found in it is not ranked again.  A caller keeps one memo for
    one field and one `limits`, since the ranks and the route depend on them.
    """
    members = list(members)
    if not members:
        return {}
    if not any(members):
        return {-1: 1}
    live = strong_core(maximal_masks(members))
    if len(live) == 1:
        return {}
    memo = {} if memo is None else memo
    rows = tuple(_transpose(live))
    ranks = memo.get(rows)
    if ranks is None:
        family = _transpose(rows)
        est = estimated_face_count(family)
        if est > limits.enumeration_budget and len(family) <= limits.max_nerve_members:
            nerve = maximal_masks(rows)
            if estimated_face_count(nerve) < est:
                family = nerve
        faces = enumerate_face_masks(family, limits.max_faces)
        ranks = memo[rows] = ranks_from_face_masks(faces, field)
    if ranks and max(ranks) >= max(map(int.bit_count, members)):
        raise AssertionError("homology above the complex dimension")
    return dict(ranks)


def connected_from_members(members) -> bool | None:
    """Connectivity of the union of simplexes; None when there are no vertices.

    One component is grown by OR-ing in every member that meets it, until no
    member is left (connected) or a pass adds none (disconnected).  Proof:
    each nonzero member is a simplex, hence connected, and every face lies in
    a member, so the union is connected iff the members' intersection graph
    is.  A member meets the grown vertex set iff it meets a member already in
    the component, so the passes walk that graph from one member.
    """
    live = [m for m in members if m]
    if not live:
        return None
    component = live.pop()
    while live:
        rest = []
        for m in live:
            if m & component:
                component |= m
            else:
                rest.append(m)
        if len(rest) == len(live):
            return False
        live = rest
    return True
