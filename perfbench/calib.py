"""Host speed sampler: a small fixed probe timed all through a timed interval.

The machine the benchmark runs on is shared.  Each of its virtual CPUs
switches, every few seconds and independently of the other, between a fast
state and slow states up to about 1.8 times slower, and over minutes the
share of slow time drifts, and every wall time with it: the same pass can
take 26 s or 38 s.  A fixed pure-Python probe slows by much the same factor
at the same moment when it runs on the same CPU.

So the timed processes sample it in-process.  A Sampler fires a timer every
PERIOD_S seconds and its signal handler runs the probe (2 to 4 ms) on
whatever CPU the process is on at that moment, timed in thread CPU time so
that preemption does not count.  The host factor of the interval is

    factor = mean probe time / NOMINAL_S

and run.py divides the interval's wall time by it, so that the times it
reports read as seconds on a host where the probe takes NOMINAL_S.  The
plain ratio is the steadiest across the host's states: in slow periods a
pass slows a little more than the probe, in fast ones a little less, and a
power of the ratio fitted to either kind of period spread the other.  The
probe is the benchmark's own code and never calls the package, so a change
to the package cannot move it.  The handler's own time (2 to 4% of the
interval) and the probe's 4 MiB buffer (in peak RSS) are there on every
commit alike.

The probe mixes the two kinds of interpreter work the package does:
carry-less multiplication in F_{2^54} on Python ints (vector-mode field
arithmetic, about four fifths of the probe) and random reads from a buffer
larger than the L2 cache (table-mode lookups).  Timed apart during real
passes, the products alone track `vector` best and the reads help on
`table`; this mix tracked both (max/min of the normalised pass times 1.09
and 1.11, against 1.36 and 1.32 raw).  The probe allocates no container,
so it never triggers the garbage collector, whose cost would follow the
heap and not the host.
"""

import random
import signal
import statistics
import time

NOMINAL_S = 0.002   # the probe's time on the 2-vCPU machine in a fast state
PERIOD_S = 0.1
BUFFER_BYTES = 4 << 20
READS = 2000
_CLMUL_CHECK = 0x1C033606A7302   # xor of the probe's 150 products


def _clmul(n=150):
    """Xor of n chained products in F_2[X] / (X^54 + X^6 + X^2 + X + 1)."""
    mod, top = (1 << 54) | 0b1000111, 1 << 54
    a = b = 0x2545F4914F6CDD1D & (top - 1)
    acc = 0
    for _ in range(n):
        x, y, r = a, b, 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & top:
                x ^= mod
        acc ^= r
        a, b = b, r or 1
    return acc


class Probe:
    """The fixed probe, with its buffer and read positions drawn once."""

    def __init__(self):
        rng = random.Random("calib")
        self.data = rng.randbytes(BUFFER_BYTES)
        self.index = [rng.randrange(BUFFER_BYTES) for _ in range(READS)]
        self.total = sum(self.data[i] for i in self.index)

    def __call__(self):
        """Thread CPU seconds of one run; raises on a wrong result."""
        t0 = time.thread_time()
        acc = _clmul()
        data, total = self.data, 0
        for i in self.index:
            total += data[i]
        elapsed = time.thread_time() - t0
        if acc != _CLMUL_CHECK or total != self.total:
            raise RuntimeError(f"speed probe computed {acc:#x}, {total}")
        return elapsed

    def factor(self):
        """Host factor: median of five probes in a row, after a warm-up."""
        self()
        return statistics.median(self() for _ in range(5)) / NOMINAL_S


class Sampler:
    """Runs the probe every PERIOD_S seconds of wall time, from SIGALRM."""

    def __init__(self):
        self.probe = Probe()
        self.samples = []
        self.error = None

    def _tick(self, signum, frame):
        # an exception raised here would surface inside the timed pass
        try:
            self.samples.append(self.probe())
        except RuntimeError as exc:
            self.error = exc

    def start(self):
        self.probe()                 # warm the probe's code, untimed
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self):
        """Mean probe time over NOMINAL_S."""
        if self.error is not None:
            raise self.error
        return statistics.fmean(self.samples) / NOMINAL_S
