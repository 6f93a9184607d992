"""Calibration kernel and the reference-second scale.

The host this benchmark was built on drifts between a fast and a slow
speed state for stretches of half a second to many seconds, so raw wall
clock and CPU time both move between runs of identical code. Every timed
region is therefore bracketed by a fixed kernel of exact-rational Python
and reported in reference seconds:

    ref_s = measured_s * NOMINAL_KERNEL_S / measured_kernel_s

The kernel uses only the standard library; the program never calls it.
It exercises the same interpreter paths the program leans on (Fraction
arithmetic, dict updates, tuple keys), so a host state that slows the
program slows the kernel in the same proportion.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time in the host's fast state (2-vCPU x86_64 VM, Python 3.11.7);
# a constant of the benchmark, so ref-s figures from different runs and
# different days are on one scale.
NOMINAL_KERNEL_S = 0.020

_SIZE = 7
_REPEAT = 17


def _eliminate(rows: list) -> int:
    """Rank of a dense Fraction matrix by Gauss-Jordan elimination."""
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        prow = [v * inv for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def kernel() -> int:
    """A fixed amount of exact-rational work; returns a checksum."""
    acc = 0
    for rep in range(_REPEAT):
        rows = [
            [Fraction((i + 1) * (j + rep + 2) % 11 + 1, i + j + 1) for j in range(_SIZE)]
            for i in range(_SIZE)
        ]
        acc += _eliminate(rows)
        table: dict = {}
        for i in range(_SIZE):
            for j in range(_SIZE):
                key = (i % 3, j % 4, (i * j) % 5)
                table[key] = table.get(key, Fraction(0)) + Fraction(i - j, j + 1)
        acc += sum(1 for v in table.values() if v)
    return acc


_CHECKSUM = kernel()


def kernel_seconds() -> float:
    """Wall time of one kernel run, checked against its known result."""
    t0 = time.perf_counter()
    got = kernel()
    dt = time.perf_counter() - t0
    if got != _CHECKSUM:
        raise RuntimeError("calibration kernel returned a wrong checksum")
    return dt


def to_ref(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Convert a measured time to reference seconds."""
    return seconds * NOMINAL_KERNEL_S * 2.0 / (kernel_before + kernel_after)
