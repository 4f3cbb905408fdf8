"""Wrapper-based span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of the eight flatorb
modules from outside the program: nothing under ``src/`` knows about it.
Every wrapped call is counted.  A call that crosses into another layer (the
innermost open span belongs to a different module, or no span is open) also
opens a span; calls inside the same layer are only counted, which keeps the
span list small while still giving each layer its self time.

Spans live in memory as ``(name, start, end, parent, op)`` tuples and are
written out once, when the run ends.  A layer's self time is the length of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Layers from the top of the stack down; each is a module of the package.
LAYERS = ("cli", "catalog", "collapse", "wallpaper", "reps", "lattices", "groups", "rational")
MARK = "__perfbench_wrapped__"

# Layer-specific counters, as (layer, metric, unit).
EXTRA_METRICS = (
    ("rational", "elim_cells", "count"),
    ("groups", "compose_calls", "count"),
    ("groups", "holonomy_elements", "count"),
    ("reps", "decompose_calls", "count"),
    ("lattices", "short_vectors_out", "count"),
    ("lattices", "cap_errors", "count"),
    ("lattices", "basis_yield", "1"),
    ("collapse", "directions_out", "count"),
    ("catalog", "get_calls", "count"),
)


def _cells(M) -> int:
    return len(M) * (len(M[0]) if len(M) else 0)


# Counter hooks: (layer, qualified name) -> f(counters, args, result).
def _add(key, amount_of):
    def hook(counters, args, result):
        counters[key] += amount_of(args, result)
    return hook


HOOKS = {
    ("rational", "rref"): _add("rational.elim_cells", lambda a, r: _cells(a[0])),
    ("rational", "kernel"): _add("rational.elim_cells", lambda a, r: _cells(a[0])),
    ("rational", "det"): _add("rational.elim_cells", lambda a, r: _cells(a[0])),
    ("groups", "AffineElement.__mul__"): _add("groups.compose_calls", lambda a, r: 1),
    ("groups", "CrystalGroup.holonomy"): _add("groups.holonomy_elements", lambda a, r: r.order),
    ("reps", "isotypic_decompose"): _add("reps.decompose_calls", lambda a, r: 1),
    ("lattices", "short_vectors"): _add("lattices.short_vectors_out", lambda a, r: len(r)),
    ("lattices", "special_basis"): _add("lattices.basis_vectors_out", lambda a, r: len(r.vectors)),
    ("collapse", "invariant_directions"): _add("collapse.directions_out", lambda a, r: len(r)),
    ("catalog", "catalog_get"): _add("catalog.get_calls", lambda a, r: 1),
}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.layer_stack: list[int] = []
        self.calls = [0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1

    def call(self, fn, layer: int, name: int, hook, cap_error, args, kwargs):
        self.calls[layer] += 1
        if self.layer_stack and self.layer_stack[-1] == layer:
            result = fn(*args, **kwargs)
        else:
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            self.layer_stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[layer] += 1
                if cap_error is not None and isinstance(exc, cap_error):
                    self.counters[f"{LAYERS[layer]}.cap_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.layer_stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
        if hook is not None:
            hook(self.counters, args, result)
        return result


def self_times(spans, span_layer) -> dict:
    """Seconds of each span's own time, summed by ``span_layer(span)``.

    ``spans`` are ``(name, start, end, parent, op)`` with ``parent`` the index
    of the enclosing span or -1.  Child spans lie inside their parent, so the
    part of a parent covered by children is the sum of their lengths.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for i, span in enumerate(spans):
        out[span_layer(span)] += (span[2] - span[1]) - child[i]
    return dict(out)


class Tracer:
    """Installs wrappers on every flatorb binding of the layers' public callables."""

    def __init__(self):
        self.recorder = Recorder()
        self._patches: list[tuple[object, str, object]] = []
        self._name_layer: list[int] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> int:
        originals = {}
        for layer, mod in enumerate(_layer_modules()):
            for qualname, owner, attr, obj in _public_callables(mod):
                fn = _unwrap_descriptor(obj)
                wrapper = self._wrap(fn, layer, qualname)
                originals[id(fn)] = wrapper
                self._patch(owner, attr, _rewrap_descriptor(obj, wrapper))
        # other flatorb namespaces that imported a layer function by name
        for mod in _flatorb_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in originals and not hasattr(obj, MARK):
                    self._patch(mod, attr, originals[id(obj)])
        return len(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer: int, qualname: str):
        rec = self.recorder
        name = len(rec.names)
        rec.names.append(f"{LAYERS[layer]}.{qualname}")
        self._name_layer.append(layer)
        hook = HOOKS.get((LAYERS[layer], qualname))
        cap_error = _cap_error() if LAYERS[layer] == "lattices" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(fn, layer, name, hook, cap_error, args, kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        rec = self.recorder
        # every span is closed once a pass has ended
        selfs = self_times(rec.spans, lambda s: self._name_layer[s[0]])
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = rec.calls[i]
            out[f"{layer}.self_s"] = selfs.get(i, 0.0)
            out[f"{layer}.errors"] = rec.errors[i]
        for layer, metric, _ in EXTRA_METRICS:
            key = f"{layer}.{metric}"
            out[key] = rec.counters.get(key, 0)
        enumerated = rec.counters.get("lattices.short_vectors_out", 0)
        returned = rec.counters.get("lattices.basis_vectors_out", 0)
        out["lattices.basis_yield"] = returned / enumerated if enumerated else 0.0
        return out

    def dump_spans(self, path, ops) -> None:
        rec = self.recorder
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in rec.spans:
                fh.write(json.dumps([rec.names[name], start, end, parent, ops[op]["id"] if op >= 0 else None]))
                fh.write("\n")


def _layer_modules():
    return [importlib.import_module(f"flatorb.{layer}") for layer in LAYERS]


def _flatorb_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "flatorb" or name.startswith("flatorb."))]


def _cap_error():
    return importlib.import_module("flatorb.lattices").LatticeEnumerationError


def _public_callables(mod):
    """(qualname, owner, attribute, object) for public functions and methods."""
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield attr, mod, attr, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_") and mattr != "__mul__":
                    continue
                if inspect.isfunction(mobj) or isinstance(mobj, (staticmethod, classmethod)):
                    yield f"{obj.__name__}.{mattr}", obj, mattr, mobj


def _unwrap_descriptor(obj):
    return obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj


def _rewrap_descriptor(obj, wrapper):
    if isinstance(obj, staticmethod):
        return staticmethod(wrapper)
    if isinstance(obj, classmethod):
        return classmethod(wrapper)
    return wrapper


def installed_wrappers() -> int:
    """Number of flatorb bindings that currently hold a benchmark wrapper."""
    count = 0
    for mod in _flatorb_modules():
        for obj in vars(mod).values():
            if hasattr(_unwrap_descriptor(obj), MARK):
                count += 1
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                count += sum(hasattr(_unwrap_descriptor(m), MARK) for m in vars(obj).values())
    return count
