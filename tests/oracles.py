"""Independent brute-force oracles used to check the production code paths.

Everything here is deliberately naive and shares no code with the package
beyond its value types: faces come from itertools over explicit vertex tuples,
matrices are dense lists, ranks are computed with Fraction (or mod-p) Gaussian
elimination, restrictions filter explicit faces by their labels, the nerve is
grown level by level over shared vertices, renumbering maps vertices one at a
time, facets are maximalized by pairwise comparison of frozensets, the skeleton
L2_q (`l2_skeleton`) is built from its definition on the closed-form pair
positions, and the quasi-forest references search every leaf order or test
the chordal-graph characterization directly.

Five kinds of entry are the exception, and say so: `plain_ranks_from_face_masks`
assembles every boundary map on a position table (faces of each dimension
numbered in ascending mask order) and ranks it in full on the package's
`matrix_rank`, so a test can isolate both the mask-keyed rows and the
clearing; `forced_ranks` runs one of the package's two face routes on the
unreduced family, so a test can compare the routes; `unmemoized_betti_numbers`
ranks every restriction with the package's `ranks_from_members` and no memo,
so a test can isolate the memo; `induced_subcomplex` cuts the facet masks
and renumbers them by the package's double `_transpose`, the reference that
`l2_of_ideal`, which builds L2(I) on its surviving pairs, is checked against;
and the small helpers at the end
(`reduced_homology_ranks`, `is_connected`, `delete_vertex`, `top_label`,
`pair_index`, `variable`, ...) are conveniences only the tests use.
"""

import warnings
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from lsquare.complexes import SimplicialComplex, _facet_masks
from lsquare.homology import (
    DEFAULT_LIMITS,
    RATIONALS,
    _transpose,
    connected_from_members,
    enumerate_face_masks,
    matrix_rank,
    maximal_masks,
    ranks_from_face_masks,
    ranks_from_members,
)
from lsquare.labeled import BettiTable, LabeledComplex
from lsquare.monomials import Monomial, MonomialIdeal, VariableTable


def maximalize(faces):
    """The distinct faces inside no other, as frozensets in sorted-vertex-tuple
    order: the facets `SimplicialComplex.facets` lists.  Empty faces count, so
    no faces give () (void) and only empty ones give (frozenset(),) (empty)."""
    uniq = set(map(frozenset, faces))
    keep = [f for f in uniq if not any(f < g for g in uniq)]
    keep.sort(key=lambda f: tuple(sorted(f)))
    return tuple(keep)


def brute_faces(facets):
    faces = set()
    for f in facets:
        f = sorted(f)
        for k in range(len(f) + 1):
            for sub in combinations(f, k):
                faces.add(tuple(sub))
    return faces


def dense_pivot_columns(matrix, p=None):
    """Pivot columns of the reduced row echelon form, ascending: the smallest
    nonzero index of each row of an echelon basis of the row space."""
    if not matrix or not matrix[0]:
        return []
    if p is None:
        rows = [[Fraction(v) for v in row] for row in matrix]
    else:
        rows = [[v % p for v in row] for row in matrix]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = (
            Fraction(1) / rows[rank][col]
            if p is None
            else pow(rows[rank][col], -1, p)
        )
        if p is None:
            rows[rank] = [v * inv for v in rows[rank]]
        else:
            rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                if p is None:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return pivots


def dense_rank(matrix, p=None):
    return len(dense_pivot_columns(matrix, p))


def brute_reduced_homology(facets, p=None):
    """Reduced homology ranks {dim: rank} of the complex spanned by `facets`.

    The empty tuple participates as the dimension -1 face whenever any facet
    exists; an input of no facets at all is the void complex (all zero).
    """
    faces = brute_faces(facets)
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim)
    ranks = {}
    boundary_rank = {}
    for d in range(0, top + 1):
        if d not in by_dim or (d - 1) not in by_dim:
            boundary_rank[d] = 0
            continue
        rows_idx = {f: i for i, f in enumerate(by_dim[d - 1])}
        matrix = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, f in enumerate(by_dim[d]):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1 :]
                matrix[rows_idx[sub]][j] = (-1) ** pos
        boundary_rank[d] = dense_rank(matrix, p)
    for d in range(-1, top + 1):
        n = len(by_dim.get(d, ()))
        ranks[d] = n - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
    return ranks


def plain_ranks_from_face_masks(faces, field):
    """Reduced homology ranks of a subset-closed mask family, every boundary
    map ranked in full (no clearing) with the package's `matrix_rank`."""
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    boundary_rank = {}
    for d in range(max(by_dim) + 1):
        if d - 1 not in by_dim:
            continue
        rows = {mask: k for k, mask in enumerate(by_dim[d - 1])}
        columns = []
        for mask in by_dim[d]:
            bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
            columns.append(
                {rows[mask ^ (1 << b)]: (-1) ** pos for pos, b in enumerate(bits)}
            )
        boundary_rank[d] = matrix_rank(columns, field, set())
    return {
        d: len(by_dim.get(d, ()))
        - boundary_rank.get(d, 0)
        - boundary_rank.get(d + 1, 0)
        for d in range(-1, max(by_dim) + 1)
    }


def forced_ranks(members, route, field=RATIONALS, limits=DEFAULT_LIMITS):
    """Reduced homology ranks of the union of simplexes on the vertex masks,
    by one route of the package, on the unreduced family: no strong-collapse
    core and no routing.  "enumerate" lists the faces of the family, and
    "nerve" those of its transposed family, which are the nerve's.  Keys are
    padded from -1 to the dimension of the complex, as `ranks_from_members`
    pads them, and the enumeration runs under the same face cap."""
    members = list(members)
    if not members:
        return {}
    live = maximal_masks(members)
    if not live:
        return {-1: 1}
    dim = max(m.bit_count() for m in live) - 1
    out = {d: 0 for d in range(-1, dim + 1)}
    family = maximal_masks(_transpose(live)) if route == "nerve" else live
    faces = enumerate_face_masks(family, limits.max_faces)
    for d, r in ranks_from_face_masks(faces, field).items():
        if d <= dim:
            out[d] = r
        elif r:
            raise AssertionError("homology above the complex dimension")
    return out


def level_nerve_faces(members):
    """Faces of the nerve of the member family, as index masks over members,
    the empty face included: the subfamilies whose members share a vertex,
    grown level by level from their prefix with the top index removed."""
    k = len(members)
    faces = {0}
    level = {1 << i: m for i, m in enumerate(members)}
    while level:
        faces.update(level)
        nxt = {}
        for fmask, inter in level.items():
            for j in range(fmask.bit_length(), k):
                inter2 = inter & members[j]
                if inter2:
                    nxt[fmask | (1 << j)] = inter2
        level = nxt
    return faces


def relabelled(members):
    """The members with their vertices renumbered 0..k-1 in increasing order."""
    union = 0
    for m in members:
        union |= m
    bits = [b for b in range(union.bit_length()) if union >> b & 1]
    new = {b: 1 << k for k, b in enumerate(bits)}
    out = []
    for m in members:
        c = 0
        for b in bits:
            if m >> b & 1:
                c |= new[b]
        out.append(c)
    return tuple(out)


def unmemoized_betti_numbers(lab, ideal, field=RATIONALS):
    """The Betti table `betti_numbers` reads off `lab`, with each restriction
    ranked on its own (no memo) and no support check."""
    total, graded = {}, {}
    for exps in ideal.sorted_lattice:
        for d, r in ranks_from_members(lab._strict_members(exps), field).items():
            if r:
                graded[(d + 1, Monomial(ideal.table, exps))] = r
                total[d + 1] = total.get(d + 1, 0) + r
    return BettiTable(total, graded)


def brute_connected(facets):
    """BFS connectivity on the explicit vertex/edge sets; None when no vertices."""
    verts = set()
    for f in facets:
        verts |= set(f)
    if not verts:
        return None
    adj = {v: set() for v in verts}
    for f in facets:
        for a, b in combinations(sorted(f), 2):
            adj[a].add(b)
            adj[b].add(a)
    start = next(iter(verts))
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == verts


def minimalize_pairwise(gens):
    """`minimalize` by testing every pair of exponent tuples: the first
    occurrence of each monomial that no other list element strictly divides,
    in list order."""
    out = []
    for k, g in enumerate(gens):
        if g.exponents in (h.exponents for h in gens[:k]):
            continue
        if not any(
            h.exponents != g.exponents
            and all(a <= b for a, b in zip(h.exponents, g.exponents))
            for h in gens
        ):
            out.append(g)
    return out


def lcm_lattice_by_subsets(ideal):
    """The lcm lattice by explicit enumeration of all 2^q - 1 generator subsets.

    Lcms are taken as entrywise maxima of exponent tuples, so this shares only
    the `Monomial` value type with the packed closure in the package.
    """
    if ideal.q > 20:
        raise ValueError("subset enumeration is limited to 20 generators")
    rows = [g.exponents for g in ideal.gens]
    out = set()
    for size in range(1, len(rows) + 1):
        for combo in combinations(rows, size):
            out.add(tuple(max(col) for col in zip(*combo)))
    return frozenset(Monomial(ideal.table, exps) for exps in out)


def _label_exponents(lab, face):
    """Exponents of the lcm of the face's vertex labels (zeros for the empty face)."""
    rows = [lab.labels[v].exponents for v in face]
    if not rows:
        return (0,) * lab.table.n
    return tuple(max(col) for col in zip(*rows))


def _restrict_faces(lab, faces):
    sub = SimplicialComplex.from_facets(faces)
    return LabeledComplex(sub, {v: lab.labels[v] for v in sub.vertices}, lab.table)


def restrict_divides(lab, m):
    """The subcomplex induced on the vertices whose labels divide m.

    Kept faces are the explicit faces all of whose vertex labels divide m.
    """
    target = m.exponents
    keep = {
        v
        for v in lab.complex.vertices
        if all(a <= b for a, b in zip(lab.labels[v].exponents, target))
    }
    faces = brute_faces(lab.complex.facets)
    return _restrict_faces(lab, [f for f in faces if set(f) <= keep])


def restrict_strict(lab, m):
    """The subcomplex of faces whose label strictly divides m.

    This is a face-filtered subcomplex, not an induced one: a face can consist
    of strict divisors yet have label exactly m.
    """
    target = m.exponents
    kept = []
    for f in brute_faces(lab.complex.facets):
        label = _label_exponents(lab, f)
        if label != target and all(a <= b for a, b in zip(label, target)):
            kept.append(f)
    return _restrict_faces(lab, kept)


def leaf_by_definition(facets, f):
    """f is the only facet, or some other facet G holds f & H for every other H."""
    others = [h for h in facets if h != f]
    return not others or any(all(f & h <= g for h in others) for g in others)


def verify_leaf_order(order):
    """Each facet is a leaf of the complex spanned by it and its predecessors."""
    return all(leaf_by_definition(order[: k + 1], f) for k, f in enumerate(order))


def backtrack_leaf_order(facets):
    """Exhaustive, memoised search for a leaf order of the nonempty facets, or None.

    Tries every facet as the last leaf, so it never relies on the peel's claim
    that any leaf may be removed first.
    """
    facets = [frozenset(f) for f in facets if f]
    memo = {}

    def solve(alive):
        if len(alive) <= 1:
            return tuple(alive)
        if alive in memo:
            return memo[alive]
        current = [facets[i] for i in sorted(alive)]
        result = None
        for i in sorted(alive):
            if leaf_by_definition(current, facets[i]):
                sub = solve(alive - {i})
                if sub is not None:
                    result = sub + (i,)
                    break
        memo[alive] = result
        return result

    order = solve(frozenset(range(len(facets))))
    return None if order is None else [facets[i] for i in order]


def is_chordal_clique_complex(facets):
    """Whether the facets span the clique complex of a chordal graph.

    By Herzog-Hibi-Trung-Zheng this is exactly the quasi-forest property.  The
    graph is the 1-skeleton; it is chordal iff simplicial vertices (whose
    neighbours are pairwise adjacent) can be peeled off until it is empty, and
    the complex is its clique complex iff every maximal clique is a facet.
    """
    facets = {frozenset(f) for f in facets if f}
    adj = {}
    for f in facets:
        for v in f:
            adj.setdefault(v, set()).update(f - {v})

    def is_clique(vs):
        return all(b in adj[a] for a, b in combinations(vs, 2))

    alive = set(adj)
    while alive:
        simplicial = next(
            (v for v in sorted(alive) if is_clique(sorted(adj[v] & alive))), None
        )
        if simplicial is None:
            return False
        alive.remove(simplicial)
    cliques = set()
    for v, nbrs in adj.items():
        nbrs = sorted(nbrs)
        for k in range(len(nbrs) + 1):
            for sub in combinations(nbrs, k):
                if is_clique(sub):
                    cliques.add(frozenset(sub) | {v})
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return all(c in facets for c in maximal)


def enumerated_f_vector(delta):
    """Face counts by dimension from 0, over the explicitly listed faces."""
    counts = [0] * (delta.dim + 1)
    for f in brute_faces(delta.facets):
        if f:
            counts[len(f) - 1] += 1
    return tuple(counts)


def faces_by_dim(delta):
    """Every face grouped by dimension; the empty face sits at dimension -1."""
    out = {}
    for f in brute_faces(delta.facets):
        out.setdefault(len(f) - 1, []).append(frozenset(f))
    for lst in out.values():
        lst.sort(key=lambda f: tuple(sorted(f)))
    return out


def reduced_homology_ranks(delta, field=RATIONALS, limits=DEFAULT_LIMITS):
    """The package's reduced homology ranks of a complex, read off its facet
    masks ({} for the void complex, {-1: 1} for the empty one)."""
    return ranks_from_members(delta.facet_masks, field, limits)


def is_connected(delta):
    """The package's connectivity of a complex; raises on one with no vertices."""
    result = connected_from_members(delta.facet_masks)
    if result is None:
        raise ValueError("connectivity is undefined for a complex with no vertices")
    return result


def induced_subcomplex(delta: SimplicialComplex, keep: Iterable[int]) -> SimplicialComplex:
    """Faces contained in `keep`, re-maximalized; the void complex stays void.
    Unknown ids are ignored with a warning.  Each kept id is in a cut facet, so
    the double transpose (`_transpose`) renumbers the cut facets
    onto the kept ids; it drops the mask 0 of the empty complex."""
    keep = frozenset(keep)
    unknown = keep - delta.vertices
    if unknown:
        warnings.warn(
            f"{len(unknown)} vertex id(s) not in the complex were ignored",
            stacklevel=2,
        )
    kept = sum(1 << k for k, v in enumerate(delta.ids) if v in keep)
    cut = _facet_masks([m & kept for m in delta.facet_masks])
    ids = tuple(v for v in delta.ids if v in keep)
    return SimplicialComplex(ids, tuple(_transpose(_transpose(cut))) or cut)


def delete_vertex(delta, v):
    if v not in delta.vertices:
        raise ValueError(f"vertex {v} is not in the complex")
    return induced_subcomplex(delta, delta.vertices - {v})


def empty_or_connected(delta):
    return not delta.vertices or brute_connected(delta.facets)


def top_label(lab):
    """The lcm of every vertex label."""
    return lab.face_label(lab.complex.vertices)


def betti_upper_bounds(lab):
    """Face counts of the complex, an entrywise bound for the Betti numbers."""
    total = dict(enumerate(enumerated_f_vector(lab.complex)))
    return BettiTable(total, {})


def pair_index(q, i, j):
    """The position of pair (i, j), in either order, in `l2.pairs_of(q)`, in
    closed form: pairs (1,1)..(1,q) come first, then (2,2)..(2,q), etc."""
    i, j = min(i, j), max(i, j)
    if not (1 <= i <= j <= q):
        raise ValueError(f"pair ({i},{j}) out of range for q={q}")
    return (i - 1) * q - (i - 1) * (i - 2) // 2 + (j - i)


def l2_skeleton(q):
    """L2_q from its definition: the q rows {pair_index(q, i, j) : j in [q]}
    and the set of off-diagonal pairs, maximalized pairwise (for q <= 2 the
    rows swallow the off-diagonal set)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    rows = [{pair_index(q, i, j) for j in range(1, q + 1)} for i in range(1, q + 1)]
    off_diagonal = {pair_index(q, i, j) for i, j in combinations(range(1, q + 1), 2)}
    return SimplicialComplex.from_facets(maximalize([*rows, off_diagonal]))


def variable(table, k):
    """The k-th variable of a table as a monomial."""
    return Monomial(table, [int(j == k) for j in range(table.n)])


def variables_ideal(q):
    """The ideal of the q distinct variables x1..xq: no pair product is
    redundant, so its L2 is the skeleton L2_q."""
    table = VariableTable([f"x{i}" for i in range(1, q + 1)])
    return MonomialIdeal(table, [variable(table, k) for k in range(q)])


def pair_extremal_ideal(q):
    """The pair-extremal ideal P_q over the variables x_i (i in [q]) and x_ij
    (i < j): generator i is x_i times every x_ij whose pair holds i."""
    pairs = list(combinations(range(1, q + 1), 2))
    table = VariableTable([f"x{i}" for i in range(1, q + 1)] + [f"x{i}_{j}" for i, j in pairs])
    gens = [
        Monomial(table, [int(k == i) for k in range(1, q + 1)] + [int(i in p) for p in pairs])
        for i in range(1, q + 1)
    ]
    return MonomialIdeal(table, gens)
