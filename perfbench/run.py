#!/usr/bin/env python3
"""Seeded benchmark for the lsquare package, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each one is there), over the fixed ideal
sets of ``inputs.json`` (written by ``make_inputs.py``):

* ``sweep``: the 500-ideal acceptance sample of ``randoms.sample_ideal``, each
  ideal run through ``randoms.ideal_checks`` over Q.  Every ``CheckResult``
  must pass.
* ``betti-q10-qq``: three q = 10, n = 12 ideals, each run in-process through
  ``lsquare.cli.main(["betti", "--power", "2", ...])`` over Q.  The exit code
  must be 0, beta_0 must equal s from ``l2_of_ideal``, the alternating sum must
  be 1, every beta_d must respect ``l2.deletion_face_bound`` and the vector
  must equal the recorded reference.

``--seed`` shuffles the order in which a run takes the ideals.  The sets
themselves are fixed: a fresh 500-ideal draw per seed moved the sweep's median
by up to 20% (it sits wherever the q = 3 and q = 4 shares put it), and the
betti references must be recorded per ideal.

A run repeats whole passes over the workload's ideals until ``--seconds`` have
passed, and repeats the set-up between passes, so that set-up time is sampled
across the run as the passes are.  With ``--trace 1`` untraced and traced
passes alternate, starting untraced; per-layer numbers come from the traced
passes and the tracing overhead from comparing the two kinds.  Load is one
process and one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Metadata, per-ideal
details and failures go to ``perfbench/out/<workload>-seed<n>-trace<t>.json``;
traced runs also write their spans to ``perfbench/out/spans-<workload>.*``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
INPUTS = HERE / "inputs.json"

# The CLI parser reads these for its defaults; the benchmark passes every cap.
CAP_ENV = ("LSQUARE_MAX_FACES", "LSQUARE_MAX_TAYLOR", "LSQUARE_MAX_Q")
MAX_FACES = 1 << 22
MAX_TAYLOR = 22
ENUMERATION_BUDGET = 512
MAX_NERVE_MEMBERS = 40

BETTI_MAX_Q = 10
WARMUP_IDEAL = "xabc,yade,zbdf,wcef"
SETUP_REPEATS_PER_PASS = 2

WORKLOADS = {"sweep": None, "betti-q10-qq": "rational"}

# Each end-to-end metric is reported on every workload.  Percentiles of the
# per-ideal times are not among them and go to the results file only.  The
# betti workload has three ideals, so its median is the middle ideal's time
# over a third of the run, and the speed of a shared host changes every few
# tens of seconds: its median spread 0.20 over ten seeds where the mean over
# the whole run, `ideals_per_s`, spread 0.10 (2-core VM).
END_TO_END = {
    "ideals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "monomials.power.s": "s",
    "monomials.power.calls": "count",
    "monomials.lcm_lattice.s": "s",
    "monomials.lcm_lattice.calls": "count",
    "monomials.lattice_size": "count",
    "l2.l2_of_ideal.s": "s",
    "l2.l2_of_ideal.calls": "count",
    "complexes.quasi_forest_order.s": "s",
    "complexes.quasi_forest_order.calls": "count",
    "complexes.f_vector.s": "s",
    "labeled.supports_resolution_quasitree.s": "s",
    "labeled.supports_resolution_homological.s": "s",
    "labeled.betti_numbers.s": "s",
    "labeled.restrictions": "count",
    "homology.ranks_from_members.s": "s",
    "homology.ranks_from_members.calls": "count",
    "homology.route.enumerate": "count",
    "homology.route.nerve": "count",
    "homology.route.shortcut": "count",
    "homology.faces": "count",
    "homology.enumerate_face_masks.s": "s",
    "homology.assembly.s": "s",
    "homology.rank.qq.s": "s",
    "homology.rank.gf2.s": "s",
    "homology.rank.calls": "count",
    "homology.rank.nnz": "count",
    "homology.connected_from_members.s": "s",
    "homology.connected_from_members.calls": "count",
    "randoms.ideal_checks.s": "s",
    "randoms.brute_properties.s": "s",
    "cli.main.s": "s",
    "trace.spans": "count",
    "trace.wall.s": "s",
    "trace.remainder.s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Item:
    """One ideal of a workload, with what its checks need."""

    text: str
    ideal: object
    q: int
    n: int
    s: int
    lattice_size: int
    record: object = None
    reference: list[int] | None = None


@dataclass
class Pass:
    wall: float
    traced: bool
    times: list[float] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Set-up: import, inputs, warm-up.
# ---------------------------------------------------------------------------


def load_library(fresh: bool) -> SimpleNamespace:
    """Import the package from this checkout's `src`, from scratch if `fresh`."""
    for name in CAP_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "lsquare" or m.startswith("lsquare.")]:
            del sys.modules[name]
    mods = {
        key: importlib.import_module(f"lsquare.{key}")
        for key in ("cli", "homology", "l2", "monomials", "randoms")
    }
    lib = SimpleNamespace(**mods)
    lib.limits = lib.homology.HomologyLimits(
        max_faces=MAX_FACES,
        enumeration_budget=ENUMERATION_BUDGET,
        max_nerve_members=MAX_NERVE_MEMBERS,
    )
    return lib


def _inputs(name: str, seed: int) -> list[dict]:
    ideals = json.loads(INPUTS.read_text())[name]["ideals"]
    random.Random(seed).shuffle(ideals)
    return ideals


def sweep_items(lib, seed: int, count: int | None = None) -> list[Item]:
    items = []
    for entry in _inputs("sweep", seed)[:count]:
        ideal, _ = lib.monomials.parse_ideal(entry["ideal"], list(entry["vars"]))
        items.append(
            Item(
                entry["ideal"], ideal, ideal.q, ideal.table.n,
                entry["s"], entry["lattice_size"],
            )
        )
    return items


def betti_item(lib, text: str, reference: list[int], lattice_size: int) -> Item:
    ideal, dropped = lib.monomials.parse_ideal(text)
    if dropped:
        raise ValueError(f"input ideal {text} is not minimal")
    _lab, record = lib.l2.l2_of_ideal(ideal)
    return Item(
        text, ideal, ideal.q, ideal.table.n, record.s, lattice_size, record, reference
    )


def betti_items(lib, seed: int, field_spec: str) -> list[Item]:
    return [
        betti_item(lib, e["ideal"], e["betti"][field_spec], e["lattice_size"])
        for e in _inputs("betti", seed)
    ]


def betti_argv(text: str, field_spec: str) -> list[str]:
    return [
        "betti", "--power", "2",
        "--max-q", str(BETTI_MAX_Q),
        "--max-faces", str(MAX_FACES),
        "--max-taylor", str(MAX_TAYLOR),
        "--field", field_spec,
        "--format", "json",
        text,
    ]


def make_items(lib, workload: str, seed: int) -> list[Item]:
    if workload == "sweep":
        return sweep_items(lib, seed)
    return betti_items(lib, seed, WORKLOADS[workload])


def make_operation(lib, workload: str):
    """The timed call for one ideal, plus its checks.

    Returns a function item -> (seconds, failure messages); only the library
    call is inside the timed region.
    """
    if workload == "sweep":
        field_obj = lib.homology.RATIONALS

        def sweep_op(item: Item):
            start = perf_counter()
            checks = lib.randoms.ideal_checks(item.ideal, field_obj, lib.limits)
            elapsed = perf_counter() - start
            return elapsed, [f"{c.name} {c.detail}" for c in checks if not c.passed]

        return sweep_op

    field_spec = WORKLOADS[workload]

    def betti_op(item: Item):
        argv = betti_argv(item.text, field_spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = lib.cli.main(argv)
            elapsed = perf_counter() - start
        return elapsed, check_betti(lib, item, code, out.getvalue(), err.getvalue())

    return betti_op


def check_betti(lib, item: Item, code: int, stdout: str, stderr: str = "") -> list[str]:
    """Every check on one `betti --power 2` result; an empty list means pass."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    try:
        total = json.loads(stdout)["total"]
        beta = [0] * (1 + max(int(d) for d in total))
        for d, r in total.items():
            beta[int(d)] = int(r)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    fails = []
    if beta[0] != item.s:
        fails.append(f"beta_0 = {beta[0]} but s = {item.s}")
    euler = sum((-1) ** d * b for d, b in enumerate(beta))
    if euler != 1:
        fails.append(f"alternating sum {euler} != 1")
    for d, b in enumerate(beta):
        bound = lib.l2.deletion_face_bound(item.record, d)
        if b > bound:
            fails.append(f"beta_{d} = {b} exceeds the deletion bound {bound}")
    if beta != item.reference:
        fails.append(f"vector {beta} != reference {item.reference}")
    return fails


def warm_up(lib, workload: str) -> None:
    if workload == "sweep":
        ideal, _ = lib.monomials.parse_ideal(WARMUP_IDEAL)
        lib.randoms.ideal_checks(ideal, lib.homology.RATIONALS, lib.limits)
        return
    with contextlib.redirect_stdout(io.StringIO()):
        code = lib.cli.main(betti_argv(WARMUP_IDEAL, WORKLOADS[workload]))
    if code != 0:
        raise RuntimeError(f"warm-up call exited with {code}")


def set_up(workload: str, seed: int):
    """Import from scratch, make the inputs and warm up; returns its seconds too."""
    start = perf_counter()
    lib = load_library(fresh=True)
    items = make_items(lib, workload, seed)
    warm_up(lib, workload)
    return perf_counter() - start, lib, items


def time_set_up(workload: str, seed: int) -> float:
    """Seconds of one more set-up from scratch; the modules in use stay loaded,
    so that the functions under test keep resolving their own imports."""
    kept = {n: m for n, m in sys.modules.items() if n == "lsquare" or n.startswith("lsquare.")}
    elapsed, _lib, _items = set_up(workload, seed)
    sys.modules.update(kept)
    return elapsed


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def run_pass(items: list[Item], operation, index: int, tracer=None) -> Pass:
    result = Pass(wall=0.0, traced=tracer is not None)
    start = perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = index * len(items) + k
        try:
            elapsed, fails = operation(item)
        except Exception as exc:  # a raised error is a failed operation
            elapsed, fails = 0.0, [f"raised {type(exc).__name__}: {exc}"]
        result.times.append(elapsed)
        result.failures.extend((k, msg) for msg in fails)
    result.wall = perf_counter() - start
    return result


def measure(items: list[Item], operation, seconds: float, traced: bool, between=None):
    """Whole passes until `seconds` have passed; traced runs alternate passes.

    `between`, if given, is called after every pass, inside the run's time.
    """
    tracer = Tracer() if traced else None
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        use_trace = traced and len(passes) % 2 == 1
        if use_trace:
            with tracer:
                passes.append(run_pass(items, operation, len(passes), tracer))
        else:
            passes.append(run_pass(items, operation, len(passes)))
        if between is not None:
            between()
        done = perf_counter() - start >= seconds
        if done and (not traced or len(passes) >= 2):
            return passes, tracer


def tally(passes: list[Pass]) -> tuple[int, int]:
    """(operations attempted, operations with at least one failed check)."""
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len({k for k, _ in p.failures}) for p in passes)
    return attempted, failed


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict[str, float]:
    attempted = sum(len(p.times) for p in passes)
    return {
        "ideals_per_s": attempted / sum(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def latency_summary(passes: list[Pass]) -> dict[str, float]:
    """Sample count, median and 98th percentile of the per-ideal times."""
    times = [t for p in passes for t in p.times]
    p98 = max(times)
    if len(times) >= 2:
        p98 = statistics.quantiles(times, n=50, method="inclusive")[-1]
    return {
        "samples": len(times),
        "ideal_p50_ms": statistics.median(times) * 1e3,
        "ideal_p98_ms": p98 * 1e3,
    }


# `<span>.s` is the self time of a span and `<span>.calls` its call count;
# these time metrics sum other spans.
SELF_SUMS = {
    "homology.assembly.s": ("homology.ranks_from_face_masks",),
    "randoms.brute_properties.s": (
        "randoms.generator_triple_property",
        "randoms.partner_generator_property",
    ),
}
RESTRICTION_CALLS = ("homology.ranks_from_members", "homology.connected_from_members")


def _pass_totals(tracer, selfs, n_items: int) -> dict[int, dict[str, float]]:
    """Per traced pass, keyed `<span>#s`, `#calls` and `#extra`, plus routes."""
    names = tracer.names
    totals: dict[int, dict[str, float]] = {}

    def add(acc, key, value):
        acc[key] = acc.get(key, 0) + value

    for k in range(len(tracer)):
        acc = totals.setdefault(tracer.item[k] // n_items, {})
        name = names[tracer.name_id[k]]
        add(acc, name + "#s", selfs[k])
        add(acc, name + "#calls", 1)
        add(acc, name + "#extra", tracer.extra[k])
        parent = tracer.parent[k]
        if parent < 0:
            add(acc, "root#wall", tracer.end[k] - tracer.start[k])
            continue
        parent_name = names[tracer.name_id[parent]]
        if parent_name == "homology.ranks_from_members":
            add(acc, "route#" + name, 1)
        if parent_name.startswith("labeled.") and name in RESTRICTION_CALLS:
            add(acc, "restrictions", 1)
    return totals


def _layer_row(acc: dict[str, float], wall: float) -> dict[str, float]:
    def get(key):
        return acc.get(key, 0)

    row = {}
    for name in PER_LAYER:
        if name.endswith(".s") and not name.startswith("trace."):
            spans = SELF_SUMS.get(name, (name[: -len(".s")],))
            row[name] = sum(get(span + "#s") for span in spans)
        elif name.endswith(".calls"):
            row[name] = get(name[: -len(".calls")] + "#calls")
    ranks = [
        key[: -len("#calls")]
        for key in acc
        if key.startswith("homology.rank.") and key.endswith("#calls")
    ]
    assembled = get("route#homology.ranks_from_face_masks")
    enumerated = get("route#homology.enumerate_face_masks")
    row.update(
        {
            "monomials.lattice_size": get("monomials.lcm_lattice#extra"),
            "labeled.restrictions": get("restrictions"),
            "homology.route.enumerate": enumerated,
            "homology.route.nerve": assembled - enumerated,
            "homology.route.shortcut": get("homology.ranks_from_members#calls") - assembled,
            "homology.faces": get("homology.ranks_from_face_masks#extra"),
            "homology.rank.calls": sum(get(r + "#calls") for r in ranks),
            "homology.rank.nnz": sum(get(r + "#extra") for r in ranks),
            "trace.spans": sum(v for key, v in acc.items() if key.endswith("#calls")),
            "trace.wall.s": wall,
            "trace.remainder.s": wall - get("root#wall"),
        }
    )
    return row


def per_layer_metrics(passes: list[Pass], tracer, n_items: int):
    """Per-layer metrics of one traced pass (mean over traced passes), and a
    list of accounting problems (empty when the trace adds up)."""
    selfs = tracer.self_times()
    totals = _pass_totals(tracer, selfs, n_items)
    problems = []
    if min(selfs, default=0.0) < -1e-9:
        problems.append("a child span outlasts its parent")
    rows = []
    for k, p in enumerate(passes):
        if not p.traced:
            continue
        acc = totals.get(k, {})
        row = _layer_row(acc, p.wall)
        self_sum = sum(v for key, v in acc.items() if key.endswith("#s"))
        if row["trace.remainder.s"] < -1e-9:
            problems.append(f"pass {k}: root spans outlast the pass")
        if abs(self_sum + row["trace.remainder.s"] - p.wall) > 1e-6 * max(p.wall, 1.0):
            problems.append(f"pass {k}: self times + remainder != pass wall time")
        rows.append(row)
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    for name in counts:
        if len({row[name] for row in rows}) > 1:
            problems.append(f"count {name} differs between traced passes")
    metrics = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    metrics.update({name: rows[0][name] for name in counts})
    traced_wall = statistics.fmean(p.wall for p in passes if p.traced)
    untraced_wall = statistics.fmean(p.wall for p in passes if not p.traced)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1
    return metrics, problems


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def git_head() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # a checkout that is not a repository must not report an enclosing one
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "lsquare" / "__init__.py").is_file():
        print(f"error: no lsquare package under {SRC}", file=sys.stderr)
        return 2
    elapsed, lib, items = set_up(workload, seed)
    setups = [elapsed]
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: lsquare was imported from {lib.cli.__file__}", file=sys.stderr)
        return 2

    def more_set_ups():
        setups.extend(time_set_up(workload, seed) for _ in range(SETUP_REPEATS_PER_PASS))

    operation = make_operation(lib, workload)
    if trace:
        passes, tracer = measure(items, operation, seconds, True)
    else:
        more_set_ups()
        passes, tracer = measure(items, operation, seconds, False, more_set_ups)
    problems: list[str] = []
    if trace:
        metrics, problems = per_layer_metrics(passes, tracer, len(items))
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(passes, statistics.median(setups))
        units = END_TO_END

    attempted, failed = tally(passes)
    failures = [
        {"pass": k, "ideal": items[i].text, "check": msg}
        for k, p in enumerate(passes)
        for i, msg in p.failures
    ]
    correct = failed == 0 and not problems

    OUT.mkdir(exist_ok=True)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "setup_s": setups,
        "passes": [{"wall_s": p.wall, "traced": p.traced} for p in passes],
        "latency": latency_summary(passes),
        "ideals": [
            {"ideal": i.text, "q": i.q, "n": i.n, "s": i.s, "L": i.lattice_size}
            for i in items
        ],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "accounting_problems": problems,
        "metrics": metrics,
    }
    report = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    report.write_text(json.dumps(details, indent=1))
    if trace:
        tracer.write(OUT / f"spans-{workload}")

    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for problem in problems + [f"{f['ideal']}: {f['check']}" for f in failures]:
        print(f"FAIL {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
