"""The machine's speed at the moment, read from a fixed pure-Python loop.

On a machine shared with other tenants the same pass can take 1.75 times as
long in one phase as in the next, and phases last from seconds to minutes, so
a whole run can fall into a fast or a slow one.  The benchmark times this
loop right before and right after each timed call and scales the call's time
by REFERENCE_S over the loop's time: the drift the loop sees cancels, and what
is left is the call's time on a machine where the loop takes REFERENCE_S.
The loop is the benchmark's own code, so a change to the program does not
move it.
"""

from __future__ import annotations

import time

LOOP_N = 300_000
REFERENCE_S = 0.030  # the loop's time on the machine behind the README's figures


def loop_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(seconds: float, loop_s: float) -> float:
    """seconds as they would read on the reference machine."""
    return seconds * REFERENCE_S / loop_s
