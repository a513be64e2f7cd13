#!/usr/bin/env python3
"""Regenerate perfbench/inputs.json, the fixed ideal sets of the benchmark.

    python3 perfbench/make_inputs.py

* ``sweep``: the first 500 draws of ``randoms.sample_ideal(Random(1), max_n=7,
  max_q=5)``, the acceptance sample of the test suite, each stored with its
  variable list so that parsing it back gives the same ideal.
* ``betti``: draws of ``randoms.random_squarefree_ideal(Random(7), n=12, q=10)``
  whose square has an lcm lattice of at most MAX_LATTICE elements, so that one
  pass over them fits a benchmark run over Q.  Each carries the Betti vector of
  its square that ``lsquare betti --power 2`` prints over Q at the commit that
  wrote the file; the benchmark fails any other vector.

Every entry also records s, the generator count of the square, and the size of
the lcm lattice of the square.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lsquare import cli, randoms  # noqa: E402
from lsquare.monomials import format_ideal, lcm_lattice, parse_ideal  # noqa: E402

SWEEP_SEED, SWEEP_COUNT, SWEEP_MAX_N, SWEEP_MAX_Q = 1, 500, 7, 5
BETTI_SEED, BETTI_COUNT, BETTI_N, BETTI_Q = 7, 3, 12, 10
MAX_LATTICE = 2000
FIELDS = ("rational",)


def betti_vector(text: str, field_spec: str) -> list[int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["betti", "--power", "2", "--max-q", str(BETTI_Q), "--field", field_spec,
             "--format", "json", text]
        )
    if code != 0:
        raise SystemExit(f"betti exited with {code} on {text}")
    total = json.loads(out.getvalue())["total"]
    return [total.get(str(d), 0) for d in range(1 + max(map(int, total)))]


def sweep_ideals() -> list[dict]:
    rng = random.Random(SWEEP_SEED)
    out = []
    for _ in range(SWEEP_COUNT):
        ideal = randoms.sample_ideal(rng, SWEEP_MAX_N, SWEEP_MAX_Q)
        text, names = format_ideal(ideal), "".join(ideal.table.names)
        if parse_ideal(text, list(names)) != (ideal, []):
            raise SystemExit(f"{text} does not parse back to the same ideal")
        square = ideal.power(2)
        out.append(
            {
                "ideal": text,
                "vars": names,
                "s": square.q,
                "lattice_size": len(lcm_lattice(square)),
            }
        )
    return out


def betti_ideals() -> list[dict]:
    rng = random.Random(BETTI_SEED)
    out = []
    draws = 0
    while len(out) < BETTI_COUNT:
        ideal = randoms.random_squarefree_ideal(rng, n=BETTI_N, q=BETTI_Q)
        draws += 1
        square = ideal.power(2)
        size = len(lcm_lattice(square))
        if size > MAX_LATTICE:
            continue
        text = format_ideal(ideal)
        out.append(
            {
                "ideal": text,
                "draw": draws,
                "s": square.q,
                "lattice_size": size,
                "betti": {f: betti_vector(text, f) for f in FIELDS},
            }
        )
        print(f"draw {draws}: |L| = {size}, s = {square.q}", file=sys.stderr)
    return out


def main() -> int:
    inputs = {
        "sweep": {
            "source": f"randoms.sample_ideal(random.Random({SWEEP_SEED}), "
            f"max_n={SWEEP_MAX_N}, max_q={SWEEP_MAX_Q}), first {SWEEP_COUNT} draws",
            "ideals": sweep_ideals(),
        },
        "betti": {
            "source": f"randoms.random_squarefree_ideal(random.Random({BETTI_SEED}), "
            f"n={BETTI_N}, q={BETTI_Q}), draws with |L(I^2)| <= {MAX_LATTICE}",
            "ideals": betti_ideals(),
        },
    }
    (HERE / "inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
