"""Scaling timings to a reference speed.

On a shared virtual machine the speed of the CPU shifts over minutes: on
a 2-vCPU Xeon VM a fixed Fraction loop ran at ~48 iterations/s for minutes
and then at ~75/s, so raw wall times taken a few minutes apart differ by
1.5x whatever the code does.  Every timed sample is therefore bracketed by
runs of a fixed reference loop that involves no delpoly code, and reported
as ``wall * REFERENCE_S / reference``, where ``reference`` is the mean time
of the loop just before and just after the sample: the sample's seconds on
a machine where the loop takes REFERENCE_S.  Over 16-second windows this
cut the spread of a workload's median from 0.11 to 0.04.  Raw wall times
are printed alongside.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import oracle

REFERENCE_S = 0.25


def _poly(base: int, degree: int) -> dict[tuple[int, int], int]:
    return {(i, j): base ** (i + 2 * j + 30) - i * j for i in range(degree + 1) for j in range(degree + 1 - i)}


_LEFT, _RIGHT = _poly(3, 20), _poly(5, 20)


def _convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ax, ar), ac in a.items():
        for (bx, br), bc in b.items():
            key = (ax + bx, ar + br)
            out[key] = out.get(key, 0) + ac * bc
    return out


def calibrate() -> float:
    """Wall seconds of the fixed reference work.  It mixes the two kinds of
    work delpoly does: the scalar Fraction recurrence at one rational
    point, and a sparse product of two-variable polynomials whose 100- to
    160-bit integer coefficients are held in dicts, as BiPoly holds them."""
    gc.collect()
    gc.disable()  # the loop makes no cycles; keep collector pauses out of it
    try:
        start = time.perf_counter()
        for _ in range(3):
            oracle.d_values(900, Fraction(7, 3), Fraction(-5, 11))
            _convolve(_LEFT, _RIGHT)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(sample: float, before: float, after: float) -> float:
    """``sample`` seconds at the reference speed, from the reference loop
    times measured just before and just after it."""
    return sample * 2 * REFERENCE_S / (before + after)
