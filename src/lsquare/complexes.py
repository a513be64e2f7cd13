"""Facet-presented simplicial complexes over integer vertex ids.

A complex is stored as its sorted vertex `ids` and its facets (maximal
faces) as `facet_masks` over positions in `ids`, ascending as `maximal_masks`
returns them; frozensets are built only for output.  The void complex has no
faces (no mask) and the empty complex {()} only the empty face (the mask 0):
both have no vertices, but they differ in reduced homology at -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

from . import homology as hml
from .homology import DEFAULT_LIMITS, HomologyLimits


def _facet_masks(masks: Sequence[int]) -> tuple[int, ...]:
    """The maximal masks; (0,) if all are 0, () if there are none."""
    return tuple(hml.maximal_masks(masks)) or tuple(set(masks))


@dataclass(frozen=True)
class SimplicialComplex:
    ids: tuple[int, ...]
    facet_masks: tuple[int, ...]

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        facets = [set(f) for f in facets]
        ids = tuple(sorted(set().union(*facets)))
        at = {v: k for k, v in enumerate(ids)}
        return cls(ids, _facet_masks([sum(1 << at[v] for v in f) for f in facets]))

    def face(self, mask: int) -> tuple[int, ...]:
        """The sorted vertex ids of a mask over positions in `ids`."""
        return tuple(v for k, v in enumerate(self.ids) if mask >> k & 1)

    @cached_property
    def facets(self) -> tuple[frozenset, ...]:
        """The facets as vertex sets, in sorted-tuple order."""
        return tuple(map(frozenset, sorted(map(self.face, self.facet_masks))))

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.ids)

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    @property
    def dim(self) -> int:
        return max(map(int.bit_count, self.facet_masks), default=0) - 1

    def __str__(self) -> str:
        if self.is_void:
            return "<void complex>"
        inner = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"<{inner}>"


def f_vector(
    delta: SimplicialComplex, limits: HomologyLimits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """Face counts by dimension, starting at dimension 0, without listing faces.

    By inclusion-exclusion over the facets, the k-faces number
    f_k = sum over nonempty facet subfamilies S of (-1)^(|S|+1) C(c_S, k+1),
    with c_S the number of vertices common to S: a nonempty face lying in
    exactly a >= 1 facets is counted sum_{j=1..a} (-1)^(j+1) C(a, j) = 1 time.
    A subfamily with no common vertex adds C(0, k+1) = 0, so only the faces of
    the nerve of the facets are listed, as the faces of the transposed facet
    family (`homology._transpose`, under the face cap), in increasing mask
    order: a face's common vertices are those of the face without its lowest
    facet, met before it, ANDed with that facet.  The void and the empty
    complex have no facet subfamily with a common vertex, so both count ().
    """
    facets = delta.facet_masks
    nerve = hml.maximal_masks(hml._transpose(facets))
    counts = [0] * (delta.dim + 1)
    common = {0: -1}  # every vertex is common to the empty subfamily
    for fmask in sorted(hml.enumerate_face_masks(nerve, limits.max_faces) - {0}):
        sign = 1 if fmask.bit_count() & 1 else -1
        low = fmask & -fmask
        common[fmask] = common[fmask ^ low] & facets[low.bit_length() - 1]
        size = common[fmask].bit_count()
        for k in range(size):
            counts[k] += sign * comb(size, k + 1)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Leaves and quasi-forest orders.
# ---------------------------------------------------------------------------


def _is_leaf_of(facets: Sequence[int], f: int) -> bool:
    """Whether facet mask f is a leaf of the complex spanned by `facets`.

    f is a leaf when it is the only facet, or when some other facet G (a
    joint) contains f & H for every other facet H, i.e. contains the hull.
    """
    others = [h for h in facets if h != f]
    hull = 0
    for h in others:
        hull |= f & h
    return not others or any(not hull & ~g for g in others)


def quasi_forest_order(delta: SimplicialComplex) -> list[frozenset] | None:
    """A facet order F_0..F_k with each F_i a leaf of <F_0..F_i>, or None.

    The peel removes any leaf of the remaining facets until none is left and
    returns the removed facets in reverse.  None proves that delta is not a
    quasi-forest, for any number of facets:

    Claim: if delta is a quasi-forest with at least two facets and F is any
    leaf of it, with joint G, the complex delta' on the other facets is a
    quasi-forest.  Proof: by Herzog-Hibi-Trung-Zheng (Trans. AMS 360, 2008,
    Thm 9.2) a complex is a quasi-forest iff it is the clique complex of a
    chordal graph.  G contains hull = F & (union of the other facets), and
    the vertices of F outside the hull lie in no other facet.  So an edge of
    delta between two vertices of delta' lies in another facet or in the
    hull, which is inside G: the 1-skeleton of delta' is the induced
    subgraph of delta's on the vertices of delta', and an induced subgraph of
    a chordal graph is chordal.  A clique of it is a clique of delta's
    1-skeleton, hence a face of delta, so it lies in some facet; if that
    facet is F, the clique lies in the hull, hence in G.  So delta' is the
    clique complex of a chordal graph, which makes it a quasi-forest.

    Every quasi-forest has a leaf (the last facet of a leaf order), so on a
    quasi-forest the peel never gets stuck, whichever leaf it removes; when
    it does finish, the reversed removals form a leaf order.
    """
    faces = {m: delta.face(m) for m in delta.facet_masks if m}
    remaining = sorted(faces, key=lambda m: (len(faces[m]), faces[m]))
    peeled: list[int] = []
    while remaining:
        leaf = next((f for f in remaining if _is_leaf_of(remaining, f)), None)
        if leaf is None:
            return None
        remaining.remove(leaf)
        peeled.append(leaf)
    return [frozenset(faces[m]) for m in reversed(peeled)]

