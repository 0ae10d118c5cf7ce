"""Spans around the layer boundaries of `apolar`, recorded from outside.

`traced(recorder)` wraps the functions and methods listed in LAYERS and
restores every binding on exit.  A module-level function is replaced in
every `apolar` module that holds it (modules do `from .x import y`, so the
binding a caller uses lives in the caller's module); a method is replaced
on its class.

Each span is (id, name, start, end, parent id, operation id, attributes).
A layer's self time is its span time minus the time of its direct child
spans, including the time taken to read a child's attributes; calls are
nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

from apolar.automorphism import TruncatedAutomorphism
from apolar.grading import Obstruction
from apolar.linalg import RationalMatrix
from apolar.poly import JetPolynomial


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


def _max_bits(matrix) -> int:
    bits = 0
    for i in range(matrix.rows):
        for x in matrix.row(i):
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def _self_cells(args, result):
    return {"cells": _cells(args[0])}


def _rref_attrs(args, result):
    return {"cells": _cells(args[0]), "max_bits": _max_bits(result[0])}


def _killing_attrs(args, result):
    return {"solved": not isinstance(result, Obstruction)}


CS = ("calls", "self_s")
CSC = CS + ("cells",)

# (span name, owner, attribute, attributes from (args, result), metrics it
# reports).  An owner that is a class gets the method wrapped; a module gets
# the function wrapped in every apolar module that imported it.  The cells
# of `automorphism.matrix` and `grading.killing_step` are those of the
# matrices built or solved in their direct child spans (see layer_metrics).
LAYERS = (
    ("linalg.rref", RationalMatrix, "rref", _rref_attrs, CSC),
    ("linalg.solve", RationalMatrix, "solve", _self_cells, CS),
    ("linalg.kernel_basis", RationalMatrix, "kernel_basis", _self_cells, CS),
    ("linalg.rank", RationalMatrix, "rank", _self_cells, CSC),
    ("linalg.matrix_build", RationalMatrix, "__init__", _self_cells, CSC),
    ("linalg.echelon", "apolar.linalg", "echelon_with_combinations", None, CS),
    ("linalg.reduce_against", "apolar.linalg", "reduce_against", None, CS),
    ("automorphism.matrix", TruncatedAutomorphism, "matrix", None, CSC),
    ("automorphism.dual_apply", "apolar.automorphism", "dual_apply", None, CS),
    ("poly.jet_mul", JetPolynomial, "__mul__", None, CS),
    ("poly.slice_dimensions", "apolar.poly", "slice_dimensions", None, CS),
    ("poly.contract_monomial", "apolar.poly", "contract_monomial", None, CS),
    ("grading.reduce_generators", "apolar.grading", "reduce_generators", None, CS),
    ("grading.killing_step", "apolar.grading", "killing_step", _killing_attrs, CSC),
    ("grading.killing_matrix", "apolar.grading", "killing_matrix", None, CS),
    ("grading.canonically_graded", "apolar.grading", "canonically_graded", None, ("self_s",)),
    ("inverse_system.socle_type", "apolar.inverse_system", "socle_type", None, CS),
    ("inverse_system.annihilator_upto", "apolar.inverse_system", "annihilator_upto", None, CS),
    ("inverse_system.hilbert_function", "apolar.inverse_system", "hilbert_function", None, CS),
    ("inverse_system.macaulay_validate", "apolar.inverse_system", "macaulay_validate", None, CS),
    ("inverse_system.is_compressed", "apolar.inverse_system", "is_compressed", None, ("calls",)),
    ("catalecticant.compressed_hilbert_function", "apolar.catalecticant",
     "compressed_hilbert_function", None, CS),
    ("parsing.parse_dual", "apolar.parsing", "parse_dual", None, CS),
    ("parsing.format_polynomial", "apolar.parsing", "format_polynomial", None, CS),
    ("cli.main", "apolar.cli", "main", None, ("self_s",)),
)
# A parent layer whose cells are the sum of those of its direct children of
# the named layer: what the automorphism builds, what the killing step solves.
CELLS_FROM_CHILD = {"automorphism.matrix": "linalg.matrix_build",
                    "grading.killing_step": "linalg.solve"}


class Recorder:
    """In-memory span store; `op_id` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn, attrs):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, perf_counter(), parent, self.op_id, None))
                raise
            end = perf_counter()
            stack.pop()
            extra = None
            if attrs:
                extra = attrs(args, result)
                # Reading the attributes is the recorder's work, not the
                # parent's: it is counted with this span's time when the
                # parent's self time is taken.
                extra["attr_s"] = perf_counter() - end
            spans.append((sid, name, start, end, parent, self.op_id, extra))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, extra in sorted(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")


def _apolar_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "apolar" or k.startswith("apolar."))]


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install a wrapper at every binding of every layer; restore them on exit."""
    undo = []
    try:
        for name, owner, attr, attrs, _reports in LAYERS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, recorder.wrap(name, original, attrs))
                undo.append((owner, attr, original))
                continue
            original = getattr(sys.modules[owner], attr)
            wrapper = recorder.wrap(name, original, attrs)
            for module in _apolar_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield recorder
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a span list, as {name: (value, unit)}."""
    name_of, child = {}, defaultdict(float)
    for sid, name, start, end, parent, _op, extra in spans:
        name_of[sid] = name
        if parent is not None:
            child[parent] += end - start + (extra or {}).get("attr_s", 0.0)
    calls, self_time, cells = defaultdict(int), defaultdict(float), defaultdict(int)
    max_bits = solved = 0
    for sid, name, start, end, parent, _op, extra in spans:
        extra = extra or {}
        calls[name] += 1
        self_time[name] += end - start - child[sid]
        cells[name] += extra.get("cells", 0)
        if parent is not None and CELLS_FROM_CHILD.get(name_of[parent]) == name:
            cells[name_of[parent]] += extra.get("cells", 0)
        max_bits = max(max_bits, extra.get("max_bits", 0))
        solved += extra.get("solved", False)

    def ratio(num, den):
        return num / den if den else 0.0

    units = {"calls": "count", "self_s": "s", "cells": "count"}
    values = {"calls": calls, "self_s": self_time, "cells": cells}
    out = {}
    for name, _owner, _attr, _attrs, reports in LAYERS:
        for metric in reports:
            out[f"{name}.{metric}"] = (values[metric][name], units[metric])
    out["linalg.rref.max_bits"] = (max_bits, "bits")
    out["grading.echelon_use_ratio"] = (
        ratio(calls["linalg.reduce_against"], calls["linalg.echelon"]), "1")
    out["grading.killing_step.solved_ratio"] = (
        ratio(solved, calls["grading.killing_step"]), "1")
    return out


DETERMINISTIC_SUFFIXES = (".calls", ".cells", ".max_bits", "_ratio")


def is_deterministic(metric: str) -> bool:
    """Counts and ratios of counts: equal on every run of the same inputs."""
    return metric.endswith(DETERMINISTIC_SUFFIXES) and metric != "trace.overhead_ratio"
