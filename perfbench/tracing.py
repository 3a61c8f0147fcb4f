"""Spans and counters recorded around the corings modules, from outside.

``Tracer.install`` replaces the public entry points of every corings module
with wrappers that open a span (name, start, end, parent, op id) per call.
Names bound elsewhere by ``from .x import y`` are rebound too, so calls
between corings modules are caught as well as calls from the benchmark.
No library file changes; ``uninstall`` restores the originals.

Spans are kept in flat arrays while the run lasts and written as JSON lines
at the end.  Self time, layer shares and counters are derived from the span
records alone (see ``self_times`` and ``layer_metrics``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Callable, NamedTuple, Optional

import numpy as np

OP_SPAN = "bench.op"   # the span around one benchmark op (``Tracer.op``)

LAYERS = ("fields", "unitsearch", "algebra", "tensor", "coring", "convolution",
          "comodule", "families", "picard", "io", "cli")

# fields is wrapped only at these entry points: its scalar helpers and
# accessors run once per matrix entry in Python loops, and a span each would
# swamp both the trace and the timing it is meant to explain.
FIELDS_ENTRY_POINTS = (
    "_rref", "FieldSpec.normalize",
    "Matrix.__matmul__", "Matrix.kron", "Matrix.__add__", "Matrix.__sub__",
    "Matrix.__neg__", "Matrix.scale",
    "Matrix.rref", "Matrix.rank", "Matrix.nullspace", "Matrix.solve",
    "Matrix.solve_matrix", "Matrix.inverse", "Matrix.is_invertible",
    "Matrix.column_space_contains",
)

# property getters that do real work (lazy tensor cubes, induced modules)
PROPERTIES = {"coring": ("Coring.cube", "Coring.delta_ambient"),
              "tensor": ("TensorQuotient.module",)}

# span names that the per-layer metrics refer to; any other wrapped function
# is named "<module>.<qualified name>"
SPAN_NAMES = {
    "fields.FieldSpec.normalize": "fields.normalize",
    "fields.Matrix.__matmul__": "fields.arith.matmul",
    "fields.Matrix.kron": "fields.arith.kron",
    "fields.Matrix.__add__": "fields.arith.add",
    "fields.Matrix.__sub__": "fields.arith.sub",
    "fields.Matrix.__neg__": "fields.other.neg",
    "fields.Matrix.scale": "fields.other.scale",
    "fields.Matrix.is_invertible": "fields.linalg.is_invertible",
    "algebra.Algebra.multiply": "algebra.multiply",
    "tensor.TensorQuotient.induce": "tensor.induce",
    "tensor.TensorQuotient.induce_or_none": "tensor.induce.or_none",
    "tensor.TensorQuotient.contains_in_kernel": "tensor.induce.kernel_check",
    "coring.check_coring": "coring.check",
    "coring.find_cointegral": "coring.cointegral",
    "coring.Cointegral.validate": "coring.cointegral.validate",
    "convolution.DualAlgebra.__init__": "convolution.dual",
    "convolution.convolution_inverse": "convolution.inverse",
    "comodule.comodule_hom_space": "comodule.hom_space",
    "comodule.bicomodule_hom_space": "comodule.hom_space",
    "comodule.bicomodule_iso_exists": "comodule.iso",
    "comodule.twisted_bicomodule": "comodule.twist",
    "comodule.check_comodule": "comodule.check",
    "comodule.check_left_comodule": "comodule.check",
    "comodule.check_bicomodule": "comodule.check",
    "unitsearch.invertible_in_span": "unitsearch.search",
    "unitsearch.subspace_contains_unit": "unitsearch.subspace",
    "picard.enumerate_automorphisms": "picard.enumerate",
    "picard._algebra_automorphisms": "picard.enumerate.base",
    "picard.is_inner": "picard.linear_route",
    "picard.inner_via_bicomodule": "picard.bicomodule_route",
    "picard.graded_ker_omega": "picard.fast_path",
    "picard.entwining_ker_membership": "picard.fast_path",
    "picard.dk_ker_membership": "picard.fast_path",
    "picard.graded_triple_ker_membership": "picard.fast_path",
    "io.load": "io.load",
    "io.save": "io.save",
}

# private functions that are entry points of their layer
PRIVATE_ENTRY_POINTS = {"picard": ("_algebra_automorphisms",)}


def span_name(layer: str, qualname: str) -> Optional[str]:
    """The span name of an entry point; None leaves it unwrapped."""
    key = f"{layer}.{qualname}"
    if key in SPAN_NAMES:
        return SPAN_NAMES[key]
    if layer == "cli":
        return "cli"
    if layer == "io":
        if "_from_" in qualname or qualname == "parse_field":
            return "io.decode"
        if "_to_" in qualname or qualname in ("dumps", "document"):
            return "io.encode"
        return None
    return key


def _elim_name(args) -> str:
    field = args[0]
    if field.kind == "Q":
        return "fields.elim.q"
    return "fields.elim.f2" if field.p == 2 else "fields.elim.fp"


def _quotient_name(args) -> str:
    n = len(args[1])
    return "tensor.square" if n == 2 else "tensor.chain" if n > 2 else "tensor.single"


def _elim_attrs(args, out) -> dict:
    rows, cols = args[1].shape
    return {"cells": rows * cols}


def _quotient_attrs(args, out) -> dict:
    tq = args[0]
    return {"ambient_dim": tq.ambient_dim, "relation_rows": tq.relations.nrows, "dim": tq.dim}


def _search_attrs(args, out) -> dict:
    return {"status": out.status}


def _enumerate_attrs(args, out) -> dict:
    return {"automorphisms": len(out), "complete": out.complete}


NAMERS: dict[str, Callable] = {"fields._rref": _elim_name,
                               "tensor.TensorQuotient.__init__": _quotient_name}
ATTRS: dict[str, Callable] = {"fields._rref": _elim_attrs,
                              "tensor.TensorQuotient.__init__": _quotient_attrs,
                              "unitsearch.invertible_in_span": _search_attrs,
                              "picard.enumerate_automorphisms": _enumerate_attrs}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    op: int          # op id, -1 outside any op
    attrs: dict


class SpanTable(NamedTuple):
    """Spans as columns: ``name`` indexes ``names``; ``attrs`` maps a span
    index to its counters."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    attrs: dict[int, dict]

    @staticmethod
    def of(spans: list[Span]) -> "SpanTable":
        names = sorted({s.name for s in spans})
        ids = {n: i for i, n in enumerate(names)}
        return SpanTable(names, np.array([ids[s.name] for s in spans], dtype=np.int64),
                         np.array([s.start for s in spans], dtype=float),
                         np.array([s.end for s in spans], dtype=float),
                         np.array([s.parent for s in spans], dtype=np.int64),
                         np.array([s.op for s in spans], dtype=np.int64),
                         {i: s.attrs for i, s in enumerate(spans) if s.attrs})


class Tracer:
    """Span recorder.  One per traced run; spans live in flat arrays."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._attrs: dict[int, dict] = {}
        self._stack = [-1]
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1])
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def op(self, index: int):
        """The span of benchmark op ``index``; spans opened inside carry its id."""
        self.op_id = index
        return self.span(OP_SPAN)

    @property
    def size(self) -> int:
        """The number of spans recorded."""
        return len(self._start)

    def table(self) -> SpanTable:
        return SpanTable(list(self._names), np.array(self._name, dtype=np.int64),
                         np.array(self._start), np.array(self._end),
                         np.array(self._parent, dtype=np.int64),
                         np.array(self._op, dtype=np.int64), dict(self._attrs))

    def write_jsonl(self, path: str) -> None:
        names = self._names
        rows = zip(self._name, map(repr, self._start), map(repr, self._end),
                   self._parent, self._op)
        with open(path, "w") as fh:
            for i, (nid, start, end, parent, op) in enumerate(rows):
                attrs = self._attrs.get(i)
                extra = f',"attrs":{json.dumps(attrs, separators=(",", ":"))}' if attrs else ""
                fh.write(f'{{"name":"{names[nid]}","start":{start},"end":{end},'
                         f'"parent":{parent},"op":{op}{extra}}}\n')

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, key: str, fixed: str) -> Callable:
        namer = NAMERS.get(key)
        attrs = ATTRS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(namer(args) if namer else fixed)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs is not None:
                tracer._attrs[idx] = attrs(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the entry points of every corings layer and rebind the
        names other corings modules imported from it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"corings.{layer}") for layer in LAYERS}
        replaced: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for qual, owner, attr, raw in _entry_points(layer, mod):
                key = f"{layer}.{qual}"
                name = span_name(layer, qual)
                if name is None:
                    continue
                if isinstance(raw, property):
                    self._set(owner, attr, property(self._wrap(raw.fget, key, name), raw.fset))
                elif isinstance(raw, staticmethod):
                    self._set(owner, attr, staticmethod(self._wrap(raw.__func__, key, name)))
                elif isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(raw.__func__, key, name)))
                else:
                    wrapped = self._wrap(raw, key, name)
                    self._set(owner, attr, wrapped)
                    if owner is mod:
                        replaced[id(raw)] = wrapped
        # names bound by `from .x import y` in the other modules and the package
        targets = list(modules.values()) + [importlib.import_module("corings")]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self.idx

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _entry_points(layer: str, mod):
    """(qualified name, owner, attribute, raw object) for each entry point
    defined in ``mod``: public functions, public methods and constructors of
    its classes, selected property getters; fields only at its kernels."""
    if layer == "fields":
        for qual in FIELDS_ENTRY_POINTS:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            yield qual, owner, attr, owner.__dict__[attr]
        return
    props = PROPERTIES.get(layer, ())
    private = PRIVATE_ENTRY_POINTS.get(layer, ())
    for name, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and (not name.startswith("_") or name in private):
            yield name, mod, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in list(vars(obj).items()):
                qual = f"{name}.{attr}"
                if isinstance(raw, property):
                    if qual in props:
                        yield qual, obj, attr, raw
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not inspect.isfunction(func):
                    continue
                if attr == "__init__" and func.__qualname__.startswith(name + "."):
                    yield qual, obj, attr, raw
                elif not attr.startswith("_"):
                    yield qual, obj, attr, raw


# -- derivation -------------------------------------------------------------

def self_times(t: SpanTable) -> np.ndarray:
    """Duration of each span minus the part its direct children cover."""
    dur = t.end - t.start
    inner = t.parent >= 0
    covered = np.bincount(t.parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered


def _ids(t: SpanTable, prefix: str) -> np.ndarray:
    """Name ids equal to ``prefix`` or below it (``prefix.*``)."""
    return np.array([i for i, n in enumerate(t.names)
                     if n == prefix or n.startswith(prefix + ".")], dtype=np.int64)


def _under(t: SpanTable, flag: np.ndarray) -> np.ndarray:
    """For each span, whether some ancestor has ``flag`` set.  Parents are
    opened before their children, so each pass climbs one level."""
    under = np.zeros(len(flag), dtype=bool)
    anc = t.parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        under[live] |= flag[anc[live]]
        anc[live] = t.parent[anc[live]]
    return under


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer calls, self time, share of op wall time, and counters."""
    n_names = len(t.names)
    dur = t.end - t.start
    calls_by_id = np.bincount(t.name, minlength=n_names)
    self_by_id = np.bincount(t.name, weights=self_times(t), minlength=n_names)
    ids = {n: i for i, n in enumerate(t.names)}

    def calls(name):
        return int(calls_by_id[ids[name]]) if name in ids else 0

    def self_s(name):
        return float(self_by_id[ids[name]]) if name in ids else 0.0

    def prefix_calls(prefix):
        return int(calls_by_id[_ids(t, prefix)].sum())

    def prefix_self(prefix):
        return float(self_by_id[_ids(t, prefix)].sum())

    def attr_sum(names, key):
        wanted = {ids[n] for n in names if n in ids}
        return sum(a.get(key, 0) for i, a in t.attrs.items() if t.name[i] in wanted)

    is_op = t.name == ids.get(OP_SPAN, -1)
    op_wall = float(dur[is_op].sum())

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = prefix_calls(layer)
        m[f"{layer}.self_s"] = prefix_self(layer)
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / op_wall if op_wall else 0.0

    elim = [f"fields.elim.{kind}" for kind in ("f2", "fp", "q")]
    for name in elim:
        m[f"{name}.self_s"] = self_s(name)
    m["fields.elim.calls"] = prefix_calls("fields.elim")
    m["fields.elim.cells"] = attr_sum(elim, "cells")
    m["fields.normalize.calls"] = calls("fields.normalize")
    m["fields.normalize.self_s"] = self_s("fields.normalize")
    m["fields.arith.calls"] = prefix_calls("fields.arith")
    m["fields.arith.self_s"] = prefix_self("fields.arith")

    m["tensor.square.builds"] = calls("tensor.square")
    m["tensor.square.self_s"] = self_s("tensor.square")
    m["tensor.chain.builds"] = calls("tensor.chain")
    m["tensor.chain.self_s"] = self_s("tensor.chain")
    for key in ("ambient_dim", "relation_rows", "dim"):
        m[f"tensor.chain.{key}"] = attr_sum(["tensor.chain"], key)
    m["tensor.induce.calls"] = calls("tensor.induce")
    m["tensor.induce.self_s"] = prefix_self("tensor.induce")

    m["coring.check.self_s"] = prefix_self("coring.check")
    m["coring.cointegral.self_s"] = prefix_self("coring.cointegral")

    m["convolution.dual.builds"] = calls("convolution.dual")
    m["convolution.dual.self_s"] = self_s("convolution.dual")
    m["convolution.inverse.self_s"] = self_s("convolution.inverse")
    for part in ("hom_space", "iso", "twist", "check"):
        m[f"comodule.{part}.self_s"] = self_s(f"comodule.{part}")

    in_search = np.isin(t.name, _ids(t, "unitsearch"))
    under_search = _under(t, in_search)
    invertibility = t.name == ids.get("fields.linalg.is_invertible", -1)
    points = int((invertibility & under_search).sum())
    search_wall = float(dur[in_search & ~under_search].sum())
    m["unitsearch.points"] = points
    m["unitsearch.points_per_s"] = points / search_wall if search_wall else 0.0
    for status, key in (("witness", "witness"), ("certified-none", "certified_none"),
                        ("undecided", "undecided")):
        m[f"unitsearch.{key}"] = sum(1 for i, a in t.attrs.items()
                                     if a.get("status") == status)

    enum_id = ids.get("picard.enumerate", -1)
    has_parent = t.parent >= 0
    in_enum = np.zeros(len(dur), dtype=bool)
    in_enum[has_parent] = t.name[t.parent[has_parent]] == enum_id
    candidates = int((invertibility & in_enum).sum())
    found = attr_sum(["picard.enumerate"], "automorphisms")
    m["picard.enumerate.self_s"] = prefix_self("picard.enumerate")
    m["picard.candidates"] = candidates
    m["picard.automorphisms"] = found
    m["picard.accept_ratio"] = found / candidates if candidates else 0.0
    for route in ("linear_route", "bicomodule_route", "fast_path"):
        m[f"picard.{route}.self_s"] = self_s(f"picard.{route}")

    for fn in ("check_entwining", "coring_from_entwining", "graded_coring"):
        m[f"families.{fn}.self_s"] = self_s(f"families.{fn}")
    m["algebra.multiply.calls"] = calls("algebra.multiply")
    m["algebra.multiply.self_s"] = self_s("algebra.multiply")
    for part in ("load", "save", "decode", "encode"):
        m[f"io.{part}.self_s"] = self_s(f"io.{part}")

    m["bench.refcheck.self_s"] = prefix_self("bench.refcheck")
    m["bench.op.self_s"] = self_s(OP_SPAN)
    m["trace.spans"] = len(dur)
    cov = op_coverage(t)
    op_dur = dur[is_op & (dur > 0)]
    m["trace.coverage"] = float(cov @ op_dur / op_dur.sum()) if cov.size else 0.0
    m["trace.coverage_min"] = float(cov.min()) if cov.size else 0.0
    m["trace.coverage_median"] = float(np.median(cov)) if cov.size else 0.0
    return m


def op_coverage(t: SpanTable) -> np.ndarray:
    """For each op, the share of its traced time that spans below the CLI
    and the reference check cover.  The op's own self time and the self time
    of the ``cli`` layer count as uncovered, so an op run through the CLI is
    covered only as far as the layers under the CLI explain it."""
    op_id = t.names.index(OP_SPAN) if OP_SPAN in t.names else -1
    dur = t.end - t.start
    own = self_times(t)
    bare = ((t.name == op_id) | np.isin(t.name, _ids(t, "cli"))) & (t.op >= 0)
    uncovered = np.bincount(t.op[bare], weights=own[bare])
    ops = (t.name == op_id) & (dur > 0)
    return 1.0 - uncovered[t.op[ops]] / dur[ops]
