"""Host speed reference for the timed passes.

A shared 2-core x86 VM runs the same code at two speeds, in phases of
seconds to minutes, so raw times of one 30 s run depend on the phase it
fell in: interpreter work and big-integer products measured about 1.75x
slower in the slow phase, long division of big integers only about 1.05x.
Job.run times fixed stdlib kernels (no thetaval code) between chunks of
operations and divides each latency by the kernels' time over their time
in the fast phase, which gives the time the work would take in the fast
phase.  A pass's wall time mixes the two kernels by the workload's share
of big-integer division; single latencies, whose percentiles fall on
short operations that compute no new Gamma value, use the first kernel
alone.  A change to thetaval moves the scaled times as it moves the raw
ones, while the host's phase mostly cancels out.
"""

from __future__ import annotations

import time

CHUNK_S = 0.1  # operation time between two reference measurements
# the kernels' times in the fast phase of a 2-core x86 VM
MIX_NOMINAL_S = 0.0024
DIV_NOMINAL_S = 0.0024
_OPERANDS = [((1 << bits) // 7, (1 << bits) // 11, bits) for bits in (512, 2048, 4096)]
_NUMERATOR, _DIVISOR = (1 << 16000) // 3, (1 << 8000) // 13


def _mix_kernel():
    """Big-integer products, shifts and small divisions at the workloads'
    sizes plus interpreter work, the mix of thetaval's Ball arithmetic."""
    acc = 0
    for i in range(300):
        a, b, bits = _OPERANDS[i % 3]
        p = a * b >> bits
        q = (p << 64) // b
        acc ^= q & 0xFFFF
        ball = {"m": p, "r": i, "f": bits}
        acc += ball["r"] + len(ball)


def _div_kernel():
    """Long divisions of the size Gamma's working precision at 4096 bits uses."""
    for i in range(20):
        _NUMERATOR // (_DIVISOR + i)


def _time_s(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdowns(division: bool) -> tuple[float, float]:
    """How much slower than in the fast phase the host runs now: for
    interpreter work and products, and (if asked for, else 1.0) for
    big-integer long division."""
    mix = _time_s(_mix_kernel) / MIX_NOMINAL_S
    return mix, _time_s(_div_kernel) / DIV_NOMINAL_S if division else 1.0
