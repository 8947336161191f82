"""The host's speed, measured with a fixed pure-Python probe.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time, while other tenants load the same cores; on a 2-core
container, one fixed set of 100 ``oracle`` requests, sent again and
again in one process, took from 173 ms to 394 ms within a minute.  The
benchmark times its requests as they run and, between them, this probe: a fixed
piece of work in the style of a team-semantics search (enumerating the
subteams of a small team as frozensets of tuples, checking a dependence
atom with a dict, memo lookups) plus a fixed integer loop.  It uses only
builtins, no ``tlk`` code, and runs with the garbage collector paused,
so a change to the program cannot change the probe; its time gives the
host's speed at that moment.  Timed figures are reported rescaled to a
fixed reference speed, ``seconds * REFERENCE_SECONDS / probe``: a
change in the program moves them, a change in the host's load mostly
does not.  The raw figures are reported next to them.
"""

from __future__ import annotations

import gc
import itertools
import time

_ROWS = tuple(itertools.product(range(3), repeat=2))[:8]
_SOME = frozenset(_ROWS[:3])
_LOOPS = 5_000
# What the probe takes at the reference speed: about its fastest time on
# the machine the baseline was recorded on (2-core Linux container,
# Python 3.11.7).  Only the scale of the reported figures depends on it.
REFERENCE_SECONDS = 0.00065


def _work() -> int:
    memo = {}
    count = 0
    for mask in range(2 ** len(_ROWS)):
        team = frozenset(r for i, r in enumerate(_ROWS) if mask >> i & 1)
        seen = {}
        ok = True
        for x, y in team:
            if seen.setdefault(x, y) != y:
                ok = False
                break
        memo[team] = ok
        count += ok
        if ok and (team | _SOME) in memo:
            count += 1
    s = 0
    for i in range(_LOOPS):
        s += i * i % 7
    return count + s


def probe() -> float:
    """Seconds the probe takes now: the faster of two runs, so a single
    interrupt does not count as a slow host."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = clock()
            _work()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def warm_probe() -> float:
    """``probe`` after the interpreter has specialised its code."""
    for _ in range(3):
        probe()
    return probe()


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two probes to seconds at the
    reference speed."""
    return 2.0 * REFERENCE_SECONDS / (before + after)
