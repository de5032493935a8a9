"""Reference kernel: fixed work that measures how fast the machine is right now.

The machine the benchmark runs on shares its host with other tenants, and
its speed moves by up to 2x, switching within seconds and in a mix that
changes over minutes (see "Noise" in ``README.md``).  Averaging inside one
run does not remove phases longer than the run.  So the benchmark runs this
kernel, in the same process, between timed passes and after each set-up,
and multiplies each pass's (or set-up's) times by
``REFERENCE_MS / kernel time`` measured next to it: the timing metrics read
as if the machine had run at the speed at which the kernel takes
``REFERENCE_MS``.  The kernel is part of the benchmark, not of the program,
so a change to the program moves the scaled times as it moves the raw ones.

The kernel mixes the three kinds of work the workloads do: interpreter-bound
calls on small arrays (the dual-number simulator, ``qsp``, the training
loop), complex state updates that fit in L2 (plain-mode simulation), and
streaming over an array larger than L2 (the widest circuit states and the
finite-difference stacks).
"""
from __future__ import annotations

import time

import numpy as np

# About the kernel's time on the reference machine when it runs fast (see
# BASELINE.md); scaled times are times at that speed.
REFERENCE_MS = 40.0

_SMALL = np.linspace(-2.0, 2.0, 64)
_MAT = np.exp(1j * np.arange(64.0)).reshape(8, 8)
_PHASE = np.exp(0.3j)


def _work() -> None:
    for i in range(1200):
        np.tanh(_SMALL * (i % 7)).sum()
        (_MAT @ _MAT)[0, 0]
        {k: k * k for k in range(20)}
    # The large arrays live only while the kernel runs, so that they do not
    # add to the process's memory high-water mark (peak_rss_mb).
    state = np.exp(1j * np.linspace(0.0, 6.0, 32 * 4096)).reshape(32, 4096)   # 2 MiB
    for _ in range(80):
        np.multiply(state, _PHASE, out=state)
        state[::2] += 0.0
    stream = np.linspace(-3.0, 3.0, 600_000)                                  # 4.6 MiB
    out = np.empty_like(stream)
    for _ in range(2):
        np.sin(stream, out=out)
        np.multiply(out, stream, out=out)
        out.sum()


def kernel_ms() -> float:
    """Wall time of one run of the reference kernel, in milliseconds."""
    tic = time.perf_counter()
    _work()
    return 1e3 * (time.perf_counter() - tic)
