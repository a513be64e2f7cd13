"""Command-line front end.

Subcommands: power, build-l2, check-support, betti, bounds, verify.
Exit codes: 0 success/PASS, 1 usage or input error (or, with nothing on
stderr, a reader that closed the output pipe early), 2 a checked criterion
is false (with a printed witness), 3 a resource cap was exceeded (the
message names the cap flag).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import l2 as l2mod
from . import randoms
from .homology import DEFAULT_LIMITS, HomologyLimits, ResourceLimit, parse_field
from .labeled import (
    BettiTable,
    NotQuasiForest,
    UnsupportedComplex,
    betti_numbers,
    labeled_from_json,
    labeled_to_json,
    supports_resolution_homological,
    supports_resolution_quasitree,
    taylor_complex,
)
from .monomials import ParseError, format_ideal, format_monomial, parse_ideal

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_RESOURCE = 3

# cap name -> (default, help)
_CAPS = {
    "max-faces": (DEFAULT_LIMITS.max_faces, "cap on enumerated faces"),
    "max-taylor": (22, "cap on Taylor complex vertices"),
    "max-q": (7, "cap on generator count for exact computations"),
    "max-products": (
        8000, "cap on the generator factors r * C(q + r - 1, r) of a power's products"
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a bad command line, the code of a false criterion;
    this parser exits 1, the code of a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_ideal(parser, name="ideal", **kwargs) -> None:
    parser.add_argument(name, **kwargs)
    parser.add_argument("--vars", default=None, help="comma-separated variable order")


def _add_options(parser, formats=(), field=False, caps=()) -> None:
    """The output format, field and resource caps a subcommand reads; a
    subcommand is given only the ones it reads."""
    if formats:
        parser.add_argument("--format", choices=formats, default="table")
    if field:
        parser.add_argument("--field", default="rational", help="rational or gf:p")
    for cap in caps:
        default, text = _CAPS[cap]
        parser.add_argument(f"--{cap}", type=int, default=default, help=text)


def _limits(args) -> HomologyLimits:
    return HomologyLimits(max_faces=args.max_faces)


def _parse_ideal_arg(args):
    names = args.vars.split(",") if args.vars else None
    ideal, dropped = parse_ideal(args.ideal, names)
    if dropped:
        print(
            "warning: input was not minimal; dropped "
            + ", ".join(format_monomial(m) for m in dropped),
            file=sys.stderr,
        )
    return ideal


def _check_q_cap(q: int, args) -> None:
    if q > args.max_q:
        raise ResourceLimit("ideal has too many generators", "max-q", q, args.max_q)


def _power(ideal, args):
    """The power r = --power of the ideal.  r is checked, and so are the
    r * C(q + r - 1, r) generator factors of its products against
    --max-products, before any product is built; I^1 is the ideal itself.
    Building costs one multiplication per factor, so the check bounds that
    work also where C(q + r - 1, r) is small, as for a huge r with q = 1."""
    r = args.power
    if r < 1:
        raise ValueError("power exponent must be >= 1")
    if r == 1:
        return ideal
    factors = r * comb(ideal.q + r - 1, r)
    if factors > args.max_products:
        raise ResourceLimit(
            "power has too many generator factors in its products", "max-products",
            factors, args.max_products,
        )
    return ideal.power(r)


_L2_SOURCE = "L2 complex of the ideal"


def _labeled_complex(args, ideal, target):
    """The complex named by --complex, else L2(I) for a square, else Taylor's,
    which only here is capped by --max-taylor."""
    if args.complex:
        with open(args.complex) as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise ValueError("complex JSON nests too deeply") from None
        return labeled_from_json(obj, target), args.complex
    if args.power == 2 and ideal.is_squarefree():
        return l2mod.l2_of_ideal(ideal)[0], _L2_SOURCE
    if target.q > args.max_taylor:
        raise ResourceLimit(
            "Taylor complex has too many vertices", "max-taylor", target.q, args.max_taylor
        )
    return taylor_complex(target), "Taylor complex"


def render_rows(header: list[str], rows: list[tuple[str, list]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        for label, values in rows:
            lines.append(",".join([label] + [str(v) for v in values]))
        return "\n".join(lines)
    widths = [len(h) for h in header]
    table = [[label] + [str(v) for v in values] for label, values in rows]
    for row in table:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))

    def fmt_row(cells):
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return cells[0].ljust(widths[0]) + " | " + "  ".join(rest)

    sep = "-" * widths[0] + "-+-" + "-" * (sum(widths[1:]) + 2 * (len(widths) - 2))
    lines = [fmt_row(header), sep]
    lines.extend(fmt_row(row) for row in table)
    return "\n".join(lines)


def _betti_rows(table: BettiTable, max_d: int, graded: bool) -> list[tuple[str, list]]:
    rows: list[tuple[str, list]] = [("beta", table.as_vector(max_d))]
    if graded and table.graded:
        per_m: dict = {}
        for (d, m), r in table.graded.items():
            per_m.setdefault(m, {})[d] = r
        for m in sorted(per_m, key=lambda m: (m.degree(), m.sort_key())):
            rows.append(
                (format_monomial(m), [per_m[m].get(d, 0) for d in range(max_d + 1)])
            )
    return rows


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_power(args) -> int:
    ideal = _parse_ideal_arg(args)
    power = _power(ideal, args)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vars": list(power.table.names),
                    "generators": [format_monomial(g) for g in power.gens],
                    "count": power.q,
                },
                indent=2,
            )
        )
    else:
        print(f"s = {power.q}")
        print(format_ideal(power))
    return EXIT_OK


def cmd_build_l2(args) -> int:
    ideal = _parse_ideal_arg(args)
    _check_q_cap(ideal.q, args)
    lab, record = l2mod.l2_of_ideal(ideal)
    pairs = l2mod.pairs_of(ideal.q)
    if args.format == "json":
        obj = labeled_to_json(lab)
        obj["pairs"] = {str(k): list(pairs[k]) for k in lab.complex.ids}
        obj["deletion"] = record.to_json()
        print(json.dumps(obj, indent=2))
        return EXIT_OK
    print(f"q = {ideal.q}, surviving vertices s = {record.s}")
    if record.deleted:
        gone = ", ".join(
            f"l({i},{j}) [{format_monomial(ideal.gens[i - 1] * ideal.gens[j - 1])}]"
            for i, j in sorted(record.deleted)
        )
        print(f"deleted: {gone}")
        print(f"t = {list(record.t)}")
    else:
        print("deleted: none (complex equals the full skeleton)")
    print("facets:")
    for f in lab.complex.facets:
        names = ", ".join("l({},{})".format(*pairs[k]) for k in sorted(f))
        label = format_monomial(lab.face_label(f))
        print(f"  dim {len(f) - 1}: {{{names}}}  label {label}")
    return EXIT_OK


def cmd_check_support(args) -> int:
    ideal = _parse_ideal_arg(args)
    _check_q_cap(ideal.q, args)
    field = parse_field(args.field)
    limits = _limits(args)
    target = _power(ideal, args)
    lab, source = _labeled_complex(args, ideal, target)
    print(f"complex: {source} ({len(lab.complex.vertices)} vertices)")

    failed = False
    try:
        rep = supports_resolution_quasitree(lab)
        print(f"quasi-forest connectivity criterion: {rep}")
        failed = failed or not rep.supported
    except NotQuasiForest:
        print("quasi-forest connectivity criterion: inapplicable (not a quasi-forest)")
    rep_h = supports_resolution_homological(lab, field, limits)
    print(f"homological criterion: {rep_h}")
    failed = failed or not rep_h.supported
    return EXIT_FAIL if failed else EXIT_OK


def cmd_betti(args) -> int:
    ideal = _parse_ideal_arg(args)
    _check_q_cap(ideal.q, args)
    field = parse_field(args.field)
    limits = _limits(args)
    target = _power(ideal, args)
    lab, source = _labeled_complex(args, ideal, target)
    if source == _L2_SOURCE:
        table = l2mod.square_betti_numbers(lab, field, limits)
    else:
        table = betti_numbers(lab, field, limits=limits)
    max_d = table.max_d
    if args.format == "json":
        print(json.dumps(table.to_json(), indent=2))
        return EXIT_OK
    header = ["d"] + [str(d) for d in range(max_d + 1)]
    print(render_rows(header, _betti_rows(table, max_d, args.graded), args.format))
    return EXIT_OK


def cmd_bounds(args) -> int:
    ideal = _parse_ideal_arg(args)
    _check_q_cap(ideal.q, args)
    field = parse_field(args.field)
    table = l2mod.bound_table(
        ideal,
        field,
        include_exact=not args.no_exact,
        max_d=args.max_d,
        limits=_limits(args),
    )
    if args.format == "json":
        print(json.dumps(table.to_json(), indent=2))
        return EXIT_OK
    # csv output is the rows alone; json carries q, s and t as keys
    if args.format == "table":
        print(f"q = {table.q}, s = {table.s}, t = {list(table.t)}")
    header = ["d"] + [str(d) for d in range(table.max_d + 1)]
    print(render_rows(header, table.rows, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    field = parse_field(args.field)
    limits = _limits(args)
    config = randoms.SweepConfig(
        seed=args.seed,
        count=args.count,
        max_n=args.max_n,
        max_q=args.max_q,
        include_fixture=not args.no_fixture,
    )
    report = randoms.run_sweep(config, field, limits)
    if args.format == "json":
        obj = {
            "seed": config.seed,
            "count": config.count,
            "instances": [
                {
                    "index": inst.index,
                    "ideal": inst.ideal_text,
                    "q": inst.q,
                    "n": inst.n,
                    "passed": inst.passed,
                    "failures": [
                        {"check": c.name, "detail": c.detail} for c in inst.failures
                    ],
                }
                for inst in report.instances
            ],
            "all_passed": report.all_passed,
        }
        print(json.dumps(obj, indent=2))
    else:
        for inst in report.instances:
            if inst.passed:
                print(
                    f"[{inst.index:03d}] q={inst.q} n={inst.n} "
                    f"I = {inst.ideal_text} : ok ({len(inst.checks)} checks)"
                )
            else:
                for c in inst.failures:
                    print(
                        f"[{inst.index:03d}] q={inst.q} n={inst.n} "
                        f"I = {inst.ideal_text} : FAIL {c.name} {c.detail}"
                    )
        good = sum(1 for inst in report.instances if inst.passed)
        print(
            f"summary: {good}/{len(report.instances)} instances passed "
            f"(seed={config.seed}, max-n={config.max_n}, max-q={config.max_q})"
        )
    return EXIT_OK if report.all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lsquare",
        description=(
            "Support complexes, exact Betti numbers, and face-count bounds "
            "for squares of square-free monomial ideals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every_format = ("table", "json", "csv")

    p = sub.add_parser("power", help="minimal generators of a power of the ideal")
    _add_ideal(p)
    p.add_argument("-r", "--power", type=int, default=2)
    _add_options(p, formats=("table", "json"), caps=("max-products",))
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("build-l2", help="the labeled complex specialized to the ideal")
    _add_ideal(p)
    _add_options(p, formats=("table", "json"), caps=("max-q",))
    p.set_defaults(func=cmd_build_l2)

    p = sub.add_parser("check-support", help="run both support criteria")
    _add_ideal(p, "--ideal", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--complex", default=None, help="labeled complex JSON file")
    _add_options(
        p, field=True, caps=("max-faces", "max-taylor", "max-q", "max-products")
    )
    p.set_defaults(func=cmd_check_support)

    p = sub.add_parser("betti", help="exact Betti numbers from a supporting complex")
    _add_ideal(p)
    p.add_argument("--power", type=int, default=1)
    p.add_argument(
        "--graded",
        action="store_true",
        help="add one row per multidegree to table and csv output "
        "(json output always lists them)",
    )
    p.add_argument("--complex", default=None, help="labeled complex JSON file")
    _add_options(
        p,
        formats=every_format,
        field=True,
        caps=("max-faces", "max-taylor", "max-q", "max-products"),
    )
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("bounds", help="bound comparison table for the square")
    _add_ideal(p)
    p.add_argument("--no-exact", action="store_true", help="skip the exact Betti row")
    p.add_argument("--max-d", type=int, default=None)
    _add_options(p, formats=every_format, field=True, caps=("max-faces", "max-q"))
    p.set_defaults(func=cmd_bounds)

    # verify owns --max-q/--max-n as sweep ranges, so --max-faces is its one cap
    p = sub.add_parser("verify", help="seeded random sweep of the invariant suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-q", type=int, default=4)
    p.add_argument("--no-fixture", action="store_true", help="skip the sharpness fixture")
    _add_options(p, formats=("table", "json"), field=True, caps=("max-faces",))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnsupportedComplex as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ResourceLimit as exc:
        print(f"resource limit: {exc}; raise --{exc.cap}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader left early (`| head`): exit 1 quietly, and point stdout
        # at devnull so the interpreter's final flush stays quiet too
        sys.stdout = open(os.devnull, "w")
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
