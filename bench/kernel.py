"""The reference kernel: the benchmark's yardstick of machine speed.

The speed of a shared VM drifts by 1.5x and more, over seconds and over
hours, as other tenants load the host.  Every timed operation is therefore
bracketed by two runs of a fixed, stdlib-only kernel, and the end-to-end
timings are reported scaled by `REFERENCE_S / kernel time`: in
milliseconds on a machine where one kernel run takes exactly REFERENCE_S.
The kernel is a Gauss-Jordan elimination over `Fraction`, the same kind of
work `apolar` does, so it slows down with the machine in about the same
way; it shares no code with `apolar`, so a change to the program moves
the scaled timings and not the kernel.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001

_rng = random.Random("apolar-bench-reference-kernel")
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(9)) for _ in range(7)
)


def _rref(matrix) -> list[list[Fraction]]:
    rows = [list(r) for r in matrix]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def kernel_s() -> float:
    """Wall time of one kernel run.

    The cyclic collector is paused for it, so that garbage an operation
    left behind is not collected, and charged, here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _rref(_MATRIX)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
