"""Monomials over a fixed variable table, monomial ideals, powers, and lcm lattices.

A monomial is a dense vector of nonnegative exponents over an ordered variable
table; the zero vector is the monomial 1.  Square-free monomials are the ones
with all exponents in {0, 1}.  Everything here is immutable and hashable, so
values can be shared freely between threads and used as dict/set keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, le
from typing import Sequence


class VariableMismatch(ValueError):
    """Raised when monomials over different variable tables are combined."""


class ParseError(ValueError):
    """Syntax error in ideal/monomial text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class VariableTable:
    """Fixed ordered list of distinct variable names; index k is variable k."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if any(not isinstance(s, str) or not s for s in names):
            raise ValueError("variable names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def single_letter(self) -> bool:
        """Every name is one letter, so monomials print without `*`."""
        return all(len(s) == 1 and s.isalpha() for s in self.names)

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)


@dataclass(frozen=True)
class Monomial:
    table: VariableTable
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) != self.table.n:
            raise ValueError(
                f"expected {self.table.n} exponents, got {len(exps)}"
            )
        if exps and min(exps) < 0:
            raise ValueError("exponents must be nonnegative")

    # agrees with __eq__ (equal monomials have equal exponents), table unhashed
    def __hash__(self) -> int:
        return hash(self.exponents)

    def _check_same_table(self, other: "Monomial") -> None:
        if self.table is not other.table and self.table != other.table:
            raise VariableMismatch(
                f"monomials over different variables: "
                f"{self.table.names} vs {other.table.names}"
            )

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_squarefree(self) -> bool:
        return max(self.exponents, default=0) <= 1

    def divides(self, other: "Monomial") -> bool:
        self._check_same_table(other)
        return all(map(le, self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_same_table(other)
        return Monomial(self.table, tuple(map(max, self.exponents, other.exponents)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_same_table(other)
        return Monomial(self.table, tuple(map(add, self.exponents, other.exponents)))

    def __str__(self) -> str:
        return format_monomial(self)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"

    # exponent tuples give a stable total order for deterministic output
    def sort_key(self) -> tuple[int, ...]:
        return self.exponents


def thermometer_codes(
    gens: Sequence[Monomial],
) -> tuple[list[int], list[tuple[int, dict[int, int]]]]:
    """Pack a nonempty list of monomials over one table into one int each.

    Each variable owns a lane, x_0's the most significant, and its levels: 0
    and the distinct exponents of that variable in the list, ascending,
    levels[r] of rank r.  The lane is len(levels) - 1 bits wide, at most
    len(gens) however large the exponents are, and an exponent of rank r is
    written in it as r low one-bits, the thermometer code 2^r - 1.  Returns
    the codes, in list order, and for each lane, x_0's first, the mask of its
    bits and a map from each value it can hold, in place, to its level.

    For the codes c, d of list elements u, v:

    - c | d is the code of lcm(u, v), whose exponents are all the list's.
      Within a lane (2^r - 1) | (2^s - 1) = 2^max(r, s) - 1, and rank is
      increasing in the exponent, so each lane holds the larger exponent.
    - d & ~c == 0 exactly when v divides u.  Within a lane 2^s - 1 has no bit
      outside 2^r - 1 exactly when s <= r, that is when v's exponent is at most
      u's; lanes are disjoint bit ranges, so this holds in every lane at once.
    - c == d exactly when u == v.  Ranks biject with exponents in each lane,
      and all elements are over one table.
    - c < d exactly when u.sort_key() < v.sort_key().  The highest bit at which
      c and d differ lies in the most significant lane where they differ, which
      is x_k for the first k where u and v differ, since x_0's lane is on top.
      Within that lane 2^r - 1 < 2^s - 1 exactly when r < s, that is when u's
      exponent of x_k is the smaller; lower lanes cannot outweigh that bit.

    Combining monomials over different tables raises VariableMismatch.
    """
    first = gens[0]
    for g in gens:
        if g.table is not first.table:
            first._check_same_table(g)
    rows = [g.exponents for g in gens]
    thermometer = [(1 << r) - 1 for r in range(len(rows) + 1)]
    levels = [sorted({0, *column}) for column in zip(*rows)]
    shift = sum(map(len, levels)) - len(levels)
    codes = [0] * len(rows)
    lanes = []
    for column, lane in zip(zip(*rows), levels):
        shift -= len(lane) - 1
        code = {e: t << shift for e, t in zip(lane, thermometer)}
        lanes.append((thermometer[len(lane) - 1] << shift, {c: e for e, c in code.items()}))
        codes = [c | code[e] for c, e in zip(codes, column)]
    return codes, lanes


def minimalize(gens: Sequence[Monomial]) -> list[Monomial]:
    """Drop every monomial strictly divisible by another list element.

    Exact duplicates collapse to their first occurrence; the relative order of
    the survivors is preserved, so generator indices stay deterministic.
    Divisibility is read off `thermometer_codes`.  The distinct codes are
    taken in order of bit count, and each is tested only against the
    survivors of smaller bit counts, so codes of one bit count, as the
    degree-r products of variables, are never tested against each other.
    That is exact: the bits of a proper divisor are a proper subset, so it
    has strictly fewer bits and comes first; and a divisor that was dropped
    has a surviving divisor, which divides the code too.  So a code is
    dropped exactly when some other code divides it.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cannot minimalize an empty generator list")
    codes, _ = thermometer_codes(gens)
    # filled back to front, so each code keeps its first monomial
    first = dict(zip(reversed(codes), reversed(gens)))
    kept: list[int] = []
    for _, group in itertools.groupby(sorted(first, key=int.bit_count), int.bit_count):
        # the whole group is tested before any of it is kept
        kept += [c for c in group if 0 not in map((~c).__and__, kept)]
    survivors = set(kept)
    return [first[c] for c in dict.fromkeys(codes) if c in survivors]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal presented by its minimal generating set.

    The constructor stores `minimalize(gens)`, so every instance is minimal;
    use `MonomialIdeal.minimal` to take the table from the first generator.
    """

    table: VariableTable
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        gens = tuple(self.gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in gens:
            if g.table != self.table:
                raise VariableMismatch("generator over a different variable table")
        object.__setattr__(self, "gens", tuple(minimalize(gens)))

    @classmethod
    def minimal(cls, gens: Sequence[Monomial]) -> "MonomialIdeal":
        """The ideal generated by `gens`, over the table of the first."""
        gens = tuple(gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        return cls(gens[0].table, gens)

    @property
    def q(self) -> int:
        return len(self.gens)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def power(self, r: int) -> "MonomialIdeal":
        """All products of r generators with repetition, minimalized; I^1 is I.

        Index multisets are enumerated in lexicographic order so the product of
        generators (i, j) with i <= j has a canonical position.
        """
        if r < 1:
            raise ValueError("power exponent must be >= 1")
        if r == 1:
            return self
        products = []
        for combo in itertools.combinations_with_replacement(range(self.q), r):
            m = self.gens[combo[0]]
            for k in combo[1:]:
                m = m * self.gens[k]
            products.append(m)
        return MonomialIdeal.minimal(products)

    @cached_property
    def encoding(self) -> tuple[list[int], list[tuple[int, dict[int, int]]]]:
        """`thermometer_codes(self.gens)`, computed once per ideal."""
        return thermometer_codes(self.gens)

    @cached_property
    def sorted_lattice(self) -> tuple[int, ...]:
        """`lcm_lattice(self)`, already in sort order, computed once per ideal."""
        return lcm_lattice(self)

    def decode(self, code: int) -> Monomial:
        """The monomial whose code under `self.encoding` is `code`, the code
        of a generator or an or of them, such as a point of `lcm_lattice`."""
        lanes = self.encoding[1]
        return Monomial(self.table, tuple([level[code & mask] for mask, level in lanes]))

    def __str__(self) -> str:
        return format_ideal(self)


def lcm_lattice(ideal: MonomialIdeal) -> tuple[int, ...]:
    """The lcms of all nonempty generator subsets, as codes of
    `ideal.encoding` in `Monomial.sort_key` order.

    The closure runs on the generators' thermometer codes, where the lcm is a
    bitwise or: after generators g_1..g_k the set L holds every lcm of a
    nonempty subset of them, and L | {a | g for a in L} | {g} extends that to
    g = g_{k+1}.  Sorting the ints sorts the monomials (proven in
    `thermometer_codes`).  Nothing is decoded; `ideal.decode` turns the
    points a caller prints into monomials.
    """
    lattice: set[int] = set()
    for g in ideal.encoding[0]:
        lattice |= {a | g for a in lattice}
        lattice.add(g)
    return tuple(sorted(lattice))


# ---------------------------------------------------------------------------
# Text syntax.
#
# Two modes, auto-detected: single-letter (`abe`, `x^2yz`) where every variable
# is one letter, and starred (`x1*x2^2`) where names are words separated by
# `*`.  An ideal is a comma-separated list of monomials.  Variable order is
# first appearance unless an explicit name list is given.  Exponents are
# decimal (`str.isdigit` would take `²`, which `int` rejects).
# ---------------------------------------------------------------------------


def _scan_single_letter(text: str, offset: int) -> list[tuple[str, int, int]]:
    factors = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if not c.isalpha():
            raise ParseError(f"unexpected character {c!r}", offset + i)
        name = c
        pos = offset + i
        i += 1
        exp = 1
        if i < len(text) and text[i] == "^":
            i += 1
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            if start == i:
                raise ParseError("expected digits after '^'", offset + i)
            exp = int(text[start:i])
        factors.append((name, exp, pos))
    return factors


def _scan_starred(text: str, offset: int) -> list[tuple[str, int, int]]:
    factors = []
    for piece_start, piece in _split_with_offsets(text, "*"):
        s = piece.strip()
        if not s:
            raise ParseError("empty factor", offset + piece_start)
        lead = piece_start + (len(piece) - len(piece.lstrip()))
        name, sep, exp_text = s.partition("^")
        name = name.strip()
        if not name or not name[0].isalpha() or not all(
            ch.isalnum() or ch == "_" for ch in name
        ):
            raise ParseError(f"bad variable name {name!r}", offset + lead)
        exp = 1
        if sep:
            exp_text = exp_text.strip()
            if not exp_text.isdecimal():
                raise ParseError("expected digits after '^'", offset + lead)
            exp = int(exp_text)
        factors.append((name, exp, offset + lead))
    return factors


def _split_with_offsets(text: str, sep: str):
    start = 0
    while True:
        k = text.find(sep, start)
        if k < 0:
            yield start, text[start:]
            return
        yield start, text[start:k]
        start = k + 1


def parse_generators(
    text: str, names: Sequence[str] | None = None
) -> tuple[VariableTable, list[Monomial]]:
    """Parse a comma-separated generator list; returns the raw, unminimalized list."""
    if not text.strip():
        raise ParseError("empty ideal (the zero ideal is not accepted)", 0)
    starred = "*" in text
    scan = _scan_starred if starred else _scan_single_letter
    factor_lists = []
    for start, piece in _split_with_offsets(text, ","):
        if not piece.strip():
            raise ParseError("empty generator", start)
        factor_lists.append(scan(piece, start))

    if names is not None:
        table = VariableTable(tuple(names))
        known = {s: k for k, s in enumerate(table.names)}
    else:
        order: list[str] = []
        known = {}
        for factors in factor_lists:
            for name, _exp, _pos in factors:
                if name not in known:
                    known[name] = len(order)
                    order.append(name)
        table = VariableTable(tuple(order))

    gens = []
    for factors in factor_lists:
        exps = [0] * table.n
        for name, exp, pos in factors:
            if name not in known:
                raise ParseError(f"unknown variable {name!r}", pos)
            exps[known[name]] += exp
        gens.append(Monomial(table, tuple(exps)))
    return table, gens


def parse_ideal(
    text: str, names: Sequence[str] | None = None
) -> tuple[MonomialIdeal, list[Monomial]]:
    """Parse and minimalize; returns (ideal, generators dropped as redundant)."""
    _table, gens = parse_generators(text, names)
    for g, (start, _piece) in zip(gens, _split_with_offsets(text, ",")):
        if g.is_one:
            raise ParseError("the unit ideal is not accepted", start)
    ideal = MonomialIdeal.minimal(gens)
    minimal = set(ideal.gens)
    dropped = [g for g in gens if g not in minimal]
    # also dropped: later copies of a repeated generator
    counts: dict[Monomial, int] = {}
    for g in gens:
        counts[g] = counts.get(g, 0) + 1
    for g, c in counts.items():
        if c > 1 and g in minimal:
            dropped.extend([g] * (c - 1))
    return ideal, dropped


def parse_monomial(text: str, table: VariableTable) -> Monomial:
    _table, gens = parse_generators(text, names=table.names)
    if len(gens) != 1:
        raise ParseError("expected a single monomial", 0)
    return gens[0]


def format_monomial(m: Monomial) -> str:
    if m.is_one:
        return "1"
    parts = []
    for name, e in zip(m.table.names, m.exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "".join(parts) if m.table.single_letter else "*".join(parts)


def format_ideal(ideal: MonomialIdeal) -> str:
    return ",".join(format_monomial(g) for g in ideal.gens)
