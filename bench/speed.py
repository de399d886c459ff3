"""A reference kernel that scales measured times to a fixed machine speed.

The benchmark shares its machine with other load. That load changes the speed
of Python code by tens of percent within seconds; a fixed loop took anywhere
from 1.0 to 1.7 s on a 2-vCPU Xeon VM. Wall times measured at different
moments are then not comparable. So every timed call runs between two short
bursts of a fixed kernel, in the same process, and its time is multiplied by
``REF_S / mean(the two bursts)``. The kernel is the benchmark's own closure
over 512 starting sets on the Petersen graph: bit operations in a Python
loop, like the program's inner loops. Scaled this way, the median time of a
repeated call stayed within 2.5% across 15-second windows in which its raw
median moved by up to 45%. The scaled times are seconds at the speed where
one burst takes ``REF_S``.
"""

import statistics
import time

import checks

REF_S = 0.0016  # one burst on an unloaded 2-vCPU Xeon VM with Python 3.11
_PETERSEN = (50, 69, 138, 276, 521, 385, 770, 548, 104, 208)


def burst():
    """Run the kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    for blue in range(1, 1 << 10, 2):
        checks.closure(_PETERSEN, blue)
    return time.perf_counter() - start


def timed(fn, *args):
    """Call ``fn(*args)`` between two bursts.

    Returns (result, seconds, reference, burst seconds): ``reference`` is the
    mean of the two bursts, ``burst seconds`` their total.
    """
    before = burst()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    after = burst()
    return result, seconds, (before + after) / 2, before + after


def scale(seconds, reference):
    return seconds * REF_S / reference


def factor(bursts):
    """Multiplier that scales times measured alongside ``bursts`` to REF_S."""
    return REF_S / statistics.median(bursts)
