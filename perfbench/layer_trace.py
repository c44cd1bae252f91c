"""Per-layer spans and counters taken at the boundaries of multiarr's modules.

A :class:`Tracer` replaces every public function of the layer modules
(and the rank and kernel methods of ``exactalg.Matrix``) with a wrapper
that times the call, in every multiarr namespace that holds it, and puts
the originals back on :meth:`Tracer.restore`.  Nothing under ``src/`` is
edited.  A layer's self time is the time spent inside its wrapped calls
minus the time of the wrapped calls they make; the bookkeeping of the
wrappers is charged to none of the layers.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from importlib import import_module

LAYERS = ("exactalg", "multiarr2", "lattice", "shift", "arr3", "cli")
METHODS = {"exactalg": {"Matrix": ("rank", "kernel")}}
# modules whose namespaces may hold a layer function under an imported name
NAMESPACES = ("multiarr", "multiarr.corpus", "multiarr.acceptance") + tuple(f"multiarr.{m}" for m in LAYERS)

METRIC_NAMES = (
    "exactalg.self_s",
    "exactalg.rank_calls",
    "exactalg.kernel_calls",
    "exactalg.matrix_cells",
    "exactalg.max_entry_bits",
    "exactalg.constraint_calls",
    "exactalg.divides_calls",
    "multiarr2.self_s",
    "multiarr2.exponents_calls",
    "multiarr2.exponents_repeat_ratio",
    "multiarr2.basis_calls",
    "lattice.self_s",
    "lattice.points",
    "lattice.exponents_per_point",
    "lattice.components",
    "shift.self_s",
    "shift.shifts_checked",
    "shift.nabla_calls",
    "arr3.self_s",
    "arr3.restriction_calls",
    "arr3.restriction_s",
    "arr3.char_poly_s",
    "cli.self_s",
    "cli.parse_s",
)


def _entry_bits(x) -> int:
    val = getattr(x, "val", None)  # FpElement
    if val is not None:
        return val.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def bound_attributes():
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    out = {}
    for modname in NAMESPACES:
        mod = import_module(modname)
        for name, val in vars(mod).items():
            out[(mod, name)] = val
    for layer, classes in METHODS.items():
        mod = import_module(f"multiarr.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out[(cls, meth)] = cls.__dict__[meth]
    return out


class Tracer:
    """Wraps the layer boundaries on :meth:`install`; read :meth:`metrics` after."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()
        self.outer_s = Counter()  # inclusive time of outermost calls, per function
        self._active = Counter()
        self._stack = []  # [child seconds, layer] per open span
        self._patches = []
        self.matrix_cells = 0
        self.max_entry_bits = 0
        self._exp_seen = set()
        self.exp_repeats = 0
        self.exp_from_lattice = 0
        self.points = 0
        self.components = 0
        self.shifts_checked = 0

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        spaces = [import_module(m) for m in NAMESPACES]
        for layer in LAYERS:
            mod = import_module(f"multiarr.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn)
                for ns in spaces:
                    for name, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, name, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        before = self._BEFORE.get(qualname)
        after = self._AFTER.get(qualname)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h0 = clock()
            if before is not None:
                before(self, args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            self._active[qualname] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._active[qualname] -= 1
                self.self_s[layer] += dt - frame[0]
                self.calls[qualname] += 1
                if not self._active[qualname]:
                    self.outer_s[qualname] += dt
                if stack:
                    # the parent sees the whole wrapper as a child, so the
                    # bookkeeping lands in no layer's self time
                    stack[-1][0] += clock() - h0
            if after is not None:
                a0 = clock()
                after(self, result)
                if stack:
                    stack[-1][0] += clock() - a0
            return result

        return wrapper

    def _before_matrix(self, args, kwargs):
        mat = args[0]
        self.matrix_cells += mat.nrows * mat.ncols
        for row in mat.rows:
            for e in row:
                if e:
                    bits = _entry_bits(e)
                    if bits > self.max_entry_bits:
                        self.max_entry_bits = bits

    def _before_exponents(self, args, kwargs):
        arr = args[0] if args else kwargs["arr"]
        m = args[1] if len(args) > 1 else kwargs["m"]
        key = (arr, tuple(m))
        if key in self._exp_seen:
            self.exp_repeats += 1
        else:
            self._exp_seen.add(key)
        if self._stack and self._stack[-1][1] == "lattice":
            self.exp_from_lattice += 1

    def _after_exponent_map(self, result):
        self.points += len(result)

    def _after_str(self, report):
        self.components += len(report.components) + len(report.clipped)

    def _after_shift(self, cert):
        self.shifts_checked += len(cert.checked_shifts)

    _BEFORE = {
        "exactalg.Matrix.rank": _before_matrix,
        "exactalg.Matrix.kernel": _before_matrix,
        "multiarr2.exponents": _before_exponents,
    }
    _AFTER = {
        "lattice.exponent_map": _after_exponent_map,
        "lattice.verify_theorem_str": _after_str,
        "shift.shift_isomorphism_check": _after_shift,
    }

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        c = self.calls
        exp_calls = c["multiarr2.exponents"]
        values = {
            "exactalg.rank_calls": c["exactalg.Matrix.rank"],
            "exactalg.kernel_calls": c["exactalg.Matrix.kernel"],
            "exactalg.matrix_cells": self.matrix_cells,
            "exactalg.max_entry_bits": self.max_entry_bits,
            "exactalg.constraint_calls": c["exactalg.divisibility_constraints"],
            "exactalg.divides_calls": c["exactalg.binary_form_divides"],
            "multiarr2.exponents_calls": exp_calls,
            "multiarr2.exponents_repeat_ratio": self.exp_repeats / exp_calls if exp_calls else 0.0,
            "multiarr2.basis_calls": c["multiarr2.basis"],
            "lattice.points": self.points,
            "lattice.exponents_per_point": self.exp_from_lattice / self.points if self.points else 0.0,
            "lattice.components": self.components,
            "shift.shifts_checked": self.shifts_checked,
            "shift.nabla_calls": c["shift.nabla"],
            "arr3.restriction_calls": c["arr3.ziegler_restriction"],
            "arr3.restriction_s": self.outer_s["arr3.ziegler_restriction"],
            "arr3.char_poly_s": self.outer_s["arr3.char_poly"],
            "cli.parse_s": self.outer_s["cli.load_document"],
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer]
        return {name: values[name] for name in METRIC_NAMES}
