"""Host speed probe: the yardstick that turns measured seconds into
reference seconds.

On a shared host the same work runs at different speeds from one minute to
the next.  On the 2-vCPU x86_64 virtual machine this benchmark was written
on, one pass of ``ideal-sweep`` took anywhere from 3.7 s to 7.2 s, flipping
between a fast and a slow state that each last from seconds to minutes, so
raw times of repeated runs spread by more than 25%.

A fixed pure-Python computation (dictionary lookups on tuple keys, the
program's own inner-loop shape) slows down with the host.  Timed before and
after every job in the same process, it gives the host's speed during that
job: the job's time multiplied by ``REFERENCE_S`` over the mean of the two
probe times is its time at the reference speed, at which the probe takes
``REFERENCE_S``.  Changes to the program leave the probe alone, so they show
in full; host speed changes cancel to the extent the probe tracks them (it
cut the spread of ``ideal-sweep`` pass times from 0.29 to 0.08 of their
median in a four-minute test).
"""
from __future__ import annotations

import gc
import time

#: Probe time at the reference speed: the fast state of the host above.
REFERENCE_S = 0.007

_CELLS = tuple(f"m{i:02d}_{i % 5}to{i % 7}_e" for i in range(64))
_TABLE = {(g, f): _CELLS[(i * 31 + j * 17) % 64]
          for i, g in enumerate(_CELLS) for j, f in enumerate(_CELLS)}


def _once() -> float:
    start = time.perf_counter()
    hits = 0
    for _ in range(20):
        for g in _CELLS:
            for f in _CELLS:
                if _TABLE[(g, f)] is g:
                    hits += 1
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed computation takes now: the faster of two runs, so a
    one-off interruption is not taken for the host's speed, with garbage
    collection paused so that a collection of the program's heap is not
    counted either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_once(), _once())
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
