"""Host speed gauge for the timed run.

A shared virtual host runs through slow phases of a few seconds in which
the same op takes up to 1.7x as long, in CPU time too: other guests on the
same physical cores slow this one down without taking CPU time from it.
The gauge times a fixed piece of reference work, which uses no zenosim
code, right before and right after each timed op.  An op's scaled time is
its CPU time times REFERENCE_S over the mean of those two readings: the
time the op would take with the host at its reference speed.  A change to
zenosim moves scaled times exactly as it moves CPU times, since the gauge
does not run zenosim.
"""

import time

import numpy as np

# The gauge's CPU time on the host the figures in baseline.json come from
# (2-core Intel Xeon virtual machine, Python 3.11, numpy 2.4, quiet phase).
REFERENCE_S = 0.003

_VECTOR = np.linspace(0.0, 1.0, 1 << 16)  # 0.5 MB, streamed by each reading
_SMALL = np.full(8, 0.5 + 0.5j)


def reading() -> float:
    """CPU seconds of the reference work: a pure-Python loop, small numpy
    calls and passes over a 0.5 MB vector, the three kinds of work the
    workloads spend their time in."""
    t0 = time.process_time()
    acc = 0
    for i in range(7000):
        acc += i * i % 7
    for _ in range(140):
        acc += np.kron(_SMALL, _SMALL)[3].real
    for _ in range(7):
        acc += int(np.count_nonzero(_VECTOR < 0.5))
    return time.process_time() - t0


def readings(count: int) -> list:
    return [reading() for _ in range(count)]
