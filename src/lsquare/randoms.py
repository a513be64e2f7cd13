"""Random square-free ideals and the seeded invariant sweep behind `verify`.

The sampling model: draw a generator count q and a variable count n uniformly
from the configured ranges (q is capped at the most pairwise-incomparable
subsets that max_n variables hold, and n is floored so that q of them exist),
then draw each generator as a uniform nonempty variable subset and reject the
batch unless it is already a minimal generating set.  A fixed seed determines
the whole sweep.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field as dc_field
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import add, le

from . import complexes as cx
from . import l2
from .homology import DEFAULT_LIMITS, Field, HomologyLimits, RATIONALS
from .labeled import (
    NotQuasiForest,
    betti_numbers,
    supports_resolution_homological,
    supports_resolution_quasitree,
    taylor_complex,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableTable,
    format_ideal,
    parse_ideal,
)

SHARPNESS_IDEAL_TEXT = "xabc,yade,zbdf,wcef"


def _min_n_for(q: int) -> int:
    n = 1
    while comb(n, n // 2) < q:
        n += 1
    return n


def _table(n: int) -> VariableTable:
    return VariableTable(tuple(string.ascii_lowercase[:n]))


def random_squarefree_ideal(rng: random.Random, n: int, q: int) -> MonomialIdeal | None:
    """q uniform nonempty variable subsets, redrawn until they form a minimal
    set (tested on bitmasks before any monomial is built); None after 5000."""
    table = _table(n)
    for _ in range(5000):
        rows = []
        for _ in range(q):
            exps = [rng.randint(0, 1) for _ in range(n)]
            if not any(exps):
                exps[rng.randrange(n)] = 1
            rows.append(exps)
        masks = [sum(e << k for k, e in enumerate(exps)) for exps in rows]
        if all(a & b not in (a, b) for a, b in combinations(masks, 2)):
            return MonomialIdeal.minimal([Monomial(table, tuple(e)) for e in rows])
    return None


def sample_ideal(rng: random.Random, max_n: int, max_q: int) -> MonomialIdeal:
    """A random square-free ideal: q from 1..min(max_q, C(max_n, max_n // 2)),
    the most pairwise-incomparable subsets of max_n variables, then n from
    the least that hold q up to max_n; both are drawn again while
    `random_squarefree_ideal` fails, and 250 000 subsets drawn in vain (random
    draws fill only a q well below the cap) are a ValueError naming --max-q."""
    drawn = 0
    while drawn < 250_000:
        q = rng.randint(1, min(max_q, comb(max_n, max_n // 2)))
        n = rng.randint(_min_n_for(q), max_n)
        ideal = random_squarefree_ideal(rng, n, q)
        if ideal is not None:
            return ideal
        drawn += 5000 * q
    raise ValueError(
        f"no minimal set of q generators came out of {drawn} random subsets "
        f"(last q = {q}, n = {n}); lower --max-q"
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class InstanceResult:
    index: int
    ideal_text: str
    q: int
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's seed and sampling ranges.  The checks rule out empty ranges
    and more variables than the 26 letters that name them, a ValueError that
    names the `verify` flag.  A max_q above the largest q that max_n
    variables can hold is cut down to it when q is drawn."""

    seed: int = 1
    count: int = 100
    max_n: int = 6
    max_q: int = 4
    include_fixture: bool = True

    def __post_init__(self):
        for flag, value, least in (
            ("--count", self.count, 0),
            ("--max-n", self.max_n, 1),
            ("--max-q", self.max_q, 1),
        ):
            if value < least:
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        if self.max_n > len(string.ascii_lowercase):
            raise ValueError(
                f"--max-n must be <= {len(string.ascii_lowercase)}, got {self.max_n}"
            )


@dataclass
class SweepReport:
    config: SweepConfig
    instances: list[InstanceResult] = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(inst.passed for inst in self.instances)


def generator_triple_property(ideal: MonomialIdeal) -> CheckResult:
    """Brute force, for r = 2 and 3: a pure power of one generator and a
    product of r generators only divide each other when all indices agree.
    Products and divisibility are taken on the exponent tuples."""
    exps = [g.exponents for g in ideal.gens]
    for r in (2, 3):
        products = {}
        for combo in combinations_with_replacement(range(len(exps)), r):
            prod = exps[combo[0]]
            for k in combo[1:]:
                prod = tuple(map(add, prod, exps[k]))
            products[combo] = prod
        for i in range(len(exps)):
            gr = products[(i,) * r]
            for combo, prod in products.items():
                divides = all(map(le, gr, prod)) or all(map(le, prod, gr))
                if divides and combo != (i,) * r:
                    return CheckResult(
                        "generator-power-triples",
                        False,
                        f"i={i + 1} r={r} indices={tuple(k + 1 for k in combo)}",
                    )
    return CheckResult("generator-power-triples", True)


def partner_generator_property(ideal: MonomialIdeal) -> CheckResult:
    """Brute force: each generator index i has a partner j so that no product
    avoiding both indices divides the product of generators i and j.
    Products and divisibility are taken on the exponent tuples."""
    exps = [g.exponents for g in ideal.gens]
    q = len(exps)
    if q < 2:
        return CheckResult("irredundant-partner", True)
    product = {
        (u, v): tuple(map(add, exps[u], exps[v])) for u in range(q) for v in range(u, q)
    }
    for i in range(q):
        found = False
        for j in range(q):
            if j == i:
                continue
            pij = product[min(i, j), max(i, j)]
            ok = True
            for u in range(q):
                for v in range(u, q):
                    if {u, v} & {i, j}:
                        continue
                    if all(map(le, product[u, v], pij)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = True
                break
        if not found:
            return CheckResult("irredundant-partner", False, f"i={i + 1}")
    return CheckResult("irredundant-partner", True)


def ideal_checks(
    ideal: MonomialIdeal,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    """The per-ideal invariant suite used by sweeps."""
    return _checks_and_invariants(ideal, field, limits)[0]


def _checks_and_invariants(
    ideal: MonomialIdeal, field: Field, limits: HomologyLimits
) -> tuple[list[CheckResult], tuple | None]:
    """`ideal_checks`, and the deletion record of L2(I), the Betti table of
    the square and the f-vector of L2(I) it computed on the way, as a triple
    that is None when the suite stopped before them."""
    out: list[CheckResult] = []
    q = ideal.q
    square = ideal.power(2)
    out.append(
        CheckResult(
            "square-size",
            square.q <= comb(q + 1, 2),
            f"s={square.q} cap={comb(q + 1, 2)}",
        )
    )

    try:
        lab, record = l2.l2_of_ideal(ideal)
    except l2.DiagonalDeleted as exc:
        out.append(CheckResult("diagonal-survives", False, str(exc)))
        return out, None
    if set(lab.ideal.gens) != set(square.gens):
        out.append(
            CheckResult(
                "labels-match-square",
                False,
                "surviving labels disagree with the minimal generators of the square",
            )
        )
        return out, None
    out.append(CheckResult("labels-match-square", True))

    # the deletion record of l2_of_ideal raises when a diagonal pair is deleted
    out.append(CheckResult("diagonal-survives", True))
    # the connectivity criterion runs the quasi-forest test itself
    try:
        rep_c = supports_resolution_quasitree(lab)
    except NotQuasiForest as exc:
        out.append(CheckResult("quasi-forest", False))
        out.append(CheckResult("support-connectivity", False, str(exc)))
    else:
        out.append(CheckResult("quasi-forest", True))
        out.append(
            CheckResult(
                "support-connectivity", rep_c.supported, str(rep_c.witness or "")
            )
        )
    rep_h = supports_resolution_homological(lab, field, limits)
    out.append(
        CheckResult(
            "support-homology",
            rep_h.supported,
            "" if rep_h.supported else f"{rep_h.witness} dim {rep_h.witness_dim}",
        )
    )

    # bounds chain: exact betti <= deletion bound == f-vector counted over the
    # facet nerve <= skeleton bound, through every dimension with a nonzero
    # entry anywhere; Taylor on lab.ideal reuses the lattice walked above
    beta = betti_numbers(taylor_complex(lab.ideal), field, limits=limits)
    top = max(q * (q - 1) // 2 - 1, q - 1, beta.max_d) + 1
    fv = cx.f_vector(lab.complex, limits)
    chain_ok = True
    detail = ""
    for d in range(top + 1):
        b = beta.total.get(d, 0)
        refined = l2.deletion_face_bound(record, d)
        coarse = l2.skeleton_face_bound(q, d)
        counted = fv[d] if d < len(fv) else 0
        if not (b <= refined <= coarse) or refined != counted:
            chain_ok = False
            detail = (
                f"d={d} beta={b} refined={refined} skeleton={coarse} "
                f"counted={counted}"
            )
            break
    out.append(CheckResult("bound-chain", chain_ok, detail))

    out.append(generator_triple_property(ideal))
    out.append(partner_generator_property(ideal))
    return out, (record, beta, fv)


def sharpness_fixture_checks(
    field: Field = RATIONALS, limits: HomologyLimits = DEFAULT_LIMITS
) -> list[CheckResult]:
    """The 4-generator ideal whose complex loses no vertices and resolves
    minimally, checked on the record, Betti table and f-vector that the
    invariant suite computed."""
    ideal, _ = parse_ideal(SHARPNESS_IDEAL_TEXT)
    out, found = _checks_and_invariants(ideal, field, limits)
    if found is None:
        return out
    record, beta, fv = found
    out.append(CheckResult("sharpness-no-deletions", not record.deleted))
    out.append(
        CheckResult(
            "sharpness-minimal",
            beta.as_vector(len(fv) - 1) == list(fv),
            f"beta={beta.as_vector()} f={list(fv)}",
        )
    )
    return out


def run_sweep(
    config: SweepConfig,
    field: Field = RATIONALS,
    limits: HomologyLimits = DEFAULT_LIMITS,
) -> SweepReport:
    report = SweepReport(config)
    if config.count <= 0:
        return report
    rng = random.Random(config.seed)
    index = 0
    if config.include_fixture:
        ideal, _ = parse_ideal(SHARPNESS_IDEAL_TEXT)
        checks = sharpness_fixture_checks(field, limits)
        report.instances.append(
            InstanceResult(
                index, SHARPNESS_IDEAL_TEXT, ideal.q, ideal.table.n, tuple(checks)
            )
        )
        index += 1
    for _ in range(config.count):
        ideal = sample_ideal(rng, config.max_n, config.max_q)
        checks = ideal_checks(ideal, field, limits)
        report.instances.append(
            InstanceResult(
                index, format_ideal(ideal), ideal.q, ideal.table.n, tuple(checks)
            )
        )
        index += 1
    return report
