"""A fixed plain-Python task that measures how fast the host runs the interpreter.

The 2-vCPU VM this benchmark was tuned on drifts in speed by tens of percent
over seconds to minutes, so raw wall times of the same code spread past the
gates' bounds from one run to the next.  The workloads call ``tick()``
between items, outside the items' own timing, and it runs the probe about
every ``EVERY_S``; a pass's wall time leaves the probe time out (``spent``).
The worker reports pass times scaled by ``REF_S`` / (median probe time):
seconds at the probe speed ``REF_S`` stands for.

The probe has the oracle check the 13 catalog documents: branchy table code
of the same kind as spanforge's.  It tracks the slow drift well, but at
times the host runs short tasks like this one (and set-up) about a third
faster while a pass speeds up by about a tenth; the scaling then
overcorrects.  The probe shares no code with spanforge and runs with the
garbage collector off, so a change to spanforge cannot move it.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

import inputs
import oracle

ROUNDS = 5
EVERY_S = 0.125
# The probe's median time on the 2-vCPU VM the benchmark was tuned on.  Any
# fixed value would do: it only sets the scale of the scaled figures.
REF_S = 0.005

_DOCS = tuple(json.dumps(doc) for doc in inputs.catalog())

samples: list[float] = []
spent = 0.0  # seconds spent probing so far
_last = float("-inf")  # when the last probe started


def probe() -> float:
    """Seconds the fixed task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    for _ in range(ROUNDS):
        for text in _DOCS:
            oracle.check(text)
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


def tick() -> None:
    """Probe if one is due, and count the time it took in ``spent``."""
    global spent, _last
    now = perf_counter()
    if now - _last >= EVERY_S:
        samples.append(probe())
        _last = now
        spent += perf_counter() - now
