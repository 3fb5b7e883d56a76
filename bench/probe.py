"""A fixed piece of CPU work that measures how fast the machine is right now.

On a shared host the speed of one core can swing by a factor of two for
tens of seconds, which swamps any change to the program. The bench runs
this probe between jobs and scales each measured time by
``REF_S / probe time nearby``. A calibrated time reads as the wall time on
a machine where one probe takes REF_S seconds. The probe uses only bench
code, so a change to the program cannot move it. It mixes the same kinds
of work as the CLI: Python-level loops over small numpy arrays, integer
bytecode and JSON encoding.
"""

from __future__ import annotations

import json
import time

import numpy as np

# one probe on a 2-core Intel Xeon VM in a quiet period (Python 3.11, numpy 2.4)
REF_S = 0.0025

_X = np.linspace(1.0, 2.0, 512)
_DOC = {"values": [0.1 * k for k in range(64)], "name": "probe"}


def _work() -> float:
    pivot = _X.copy()
    count = 0
    for k in range(200):
        pivot = (_X - 0.01 * k) - 0.25 / pivot
        pivot = np.where(pivot == 0.0, -1e-300, pivot)
        count += int(np.count_nonzero(pivot < 0.0))
    total = 0
    for k in range(8000):
        total += (k * k) % 7
    text = ""
    for _ in range(20):
        text = json.dumps(_DOC)
    return count + total + len(text)


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started
