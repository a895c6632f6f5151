"""Host speed, sampled with a fixed yardstick of the benchmark's own.

On a shared host the processor's speed drifts by tens of percent over
seconds to minutes, with whatever else the host runs. The benchmark times a
fixed piece of work (``yardstick``, which calls no stretchlab code) next to
what it measures, and rescales each measured time to the host at its
reference speed: ``seconds * REFERENCE_S / median(yardstick samples taken
during the measurement)``. A change to stretchlab cannot move the
yardstick, so it moves only the measured time.
"""

import signal
import statistics
import time

import numpy as np

# A typical yardstick time on the host where the benchmark was defined (2
# shared vCPUs of an x86_64 Xeon, Python 3.11, numpy 2.4 with OpenBLAS); it
# only sets the scale of the reported times.
REFERENCE_S = 0.045
SAMPLE_EVERY_S = 0.5

_SMALL = np.random.default_rng(12345).standard_normal((384, 3, 3))
_DENSE = np.random.default_rng(54321).standard_normal((96, 96))
_DENSE = _DENSE @ _DENSE.T


def yardstick():
    """Seconds taken by a fixed piece of work that mixes what the workloads
    do: interpreted loops and dict updates, batched 3x3 SVDs and einsums,
    and small dense eigen-solves."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(40000):
        acc += (i % 7) * 0.5
        table[i % 499] = table.get(i % 499, 0) + 1
    for _ in range(20):
        u, s, vt = np.linalg.svd(_SMALL)
        acc += float(np.einsum("nij,njk->nik", u, vt).sum()) + float(s.sum())
    for _ in range(10):
        acc += float(np.linalg.eigvalsh(_DENSE)[0])
    return time.perf_counter() - t0


def to_reference(seconds, samples):
    """``seconds`` measured while the yardstick took ``samples``, rescaled
    to the reference host speed."""
    return seconds * REFERENCE_S / statistics.median(samples)


class Sampler:
    """Yardstick samples taken every ``SAMPLE_EVERY_S`` seconds from a
    wall-clock timer signal while the context is open, and once more as it
    closes, so that even a short run has one.

    The handler runs in the main thread between bytecodes, so a sample can
    land inside a timed call; ``spent`` is the total time spent sampling,
    which the caller subtracts from what it times. A signal that arrives
    while a sample is being taken is dropped.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append(yardstick())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(yardstick())
