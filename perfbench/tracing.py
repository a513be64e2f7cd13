"""Span tracing around the public functions of each `lsquare` layer.

The tracer wraps module-level functions from outside the package: each
wrapped call records one span (name, start, end, parent span, item id and one
layer-specific count) into flat arrays held in memory.  Wrappers are installed
at every binding site, because `labeled`, `randoms`, `l2` and `cli` import some
of these functions by name (for example `lsquare.labeled.lcm_lattice` and
`lsquare.cli.betti_numbers` are separate bindings of the same object).

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by root
spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


def _faces_count(args, kwargs, result):
    return len(args[0])


def _lattice_count(args, kwargs, result):
    return len(result)


def _nnz(args, kwargs, result):
    columns = args[0]
    if columns and isinstance(columns[0], int):
        return sum(c.bit_count() for c in columns)
    return sum(len(c) for c in columns)


def _field_tag(field) -> str:
    text = str(field)
    return {"rational": "qq", "gf:2": "gf2"}.get(text, text.replace(":", ""))


# (span name, module, attribute path, count recorded in the span's `extra`)
TARGETS = (
    ("monomials.power", "lsquare.monomials", "MonomialIdeal.power", None),
    ("monomials.lcm_lattice", "lsquare.monomials", "lcm_lattice", _lattice_count),
    ("l2.l2_of_ideal", "lsquare.l2", "l2_of_ideal", None),
    ("complexes.quasi_forest_order", "lsquare.complexes", "quasi_forest_order", None),
    ("complexes.f_vector", "lsquare.complexes", "f_vector", None),
    (
        "labeled.supports_resolution_quasitree",
        "lsquare.labeled",
        "supports_resolution_quasitree",
        None,
    ),
    (
        "labeled.supports_resolution_homological",
        "lsquare.labeled",
        "supports_resolution_homological",
        None,
    ),
    ("labeled.betti_numbers", "lsquare.labeled", "betti_numbers", None),
    ("homology.ranks_from_members", "lsquare.homology", "ranks_from_members", None),
    ("homology.enumerate_face_masks", "lsquare.homology", "enumerate_face_masks", None),
    (
        "homology.ranks_from_face_masks",
        "lsquare.homology",
        "ranks_from_face_masks",
        _faces_count,
    ),
    ("homology.matrix_rank", "lsquare.homology", "matrix_rank", _nnz),
    (
        "homology.connected_from_members",
        "lsquare.homology",
        "connected_from_members",
        None,
    ),
    ("randoms.ideal_checks", "lsquare.randoms", "ideal_checks", None),
    (
        "randoms.generator_triple_property",
        "lsquare.randoms",
        "generator_triple_property",
        None,
    ),
    (
        "randoms.partner_generator_property",
        "lsquare.randoms",
        "partner_generator_property",
        None,
    ),
    ("cli.main", "lsquare.cli", "main", None),
)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.extra = array("q")
        self.current_item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, count):
        fixed_id = self._id(name)
        rank_ids: dict[str, int] = {}
        name_id, start, end = self.name_id, self.start, self.end
        parent, item, extra, stack = self.parent, self.item, self.extra, self._stack
        # rank spans are named by field, so GF(2) and Q elimination separate
        rank = name == "homology.matrix_rank"

        def wrapper(*args, **kwargs):
            if rank:
                tag = _field_tag(args[1] if len(args) > 1 else kwargs["field"])
                sid = rank_ids.get(tag)
                if sid is None:
                    sid = rank_ids[tag] = self._id(f"homology.rank.{tag}")
            else:
                sid = fixed_id
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            extra.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                extra[idx] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at its definition and at every by-name import."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "lsquare" or key.startswith("lsquare."))
        ]
        for name, module_name, path, count in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for k, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[k] - self.start[k]
        return out

    def write(self, stem) -> None:
        """Write the spans as `<stem>.bin` (raw arrays) and `<stem>.json` (layout)."""
        fields = ("name_id", "start", "end", "parent", "item", "extra")
        with open(f"{stem}.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        layout = {
            "count": len(self),
            "names": self.names,
            "arrays": [
                {"field": f, "typecode": getattr(self, f).typecode,
                 "itemsize": getattr(self, f).itemsize}
                for f in fields
            ],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(layout, fh, indent=1)
