"""A fixed reference computation that measures how fast the host runs pure
Python exact arithmetic right now.

A shared host changes the speed of this benchmark's process by a quarter
and more for seconds to minutes at a time, beyond what averaging inside
one run can remove.  ``run.py`` therefore times this kernel between the
workload's operations, and ``setup_probe.py`` after each set-up, and
scales every timing by ``NOMINAL_S`` over the kernel's mean time in the
samples taken around it: the reported times are the times the run would
have taken on a host where the kernel takes ``NOMINAL_S``.  The kernel
imports nothing from ``surfbraid``, so no change to the program changes
it.

The kernel does the kind of work the program does: fraction-free sparse
elimination over the integers on rows keyed by tuples, with gcd content
stripping, and relator moves on words of tuples, kept free-reduced and
collected in a set.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time

NOMINAL_S = 0.040  # about the kernel's mean time on a 2-vCPU Xeon VM, Python 3.11
EVERY_S = 0.3  # one kernel sample for every EVERY_S seconds of the run
CATCH_UP = 16  # most samples taken at once, after an operation of seconds
WINDOW_S = 1.0  # samples this close to a timing scale it ...
LEAST = 8  # ... and at least this many of the nearest


class Kernel:
    """The reference inputs, built once; ``__call__`` times one run of the
    kernel over them and returns the seconds."""

    def __init__(self):
        rng = random.Random("surfbraid-bench-reference")
        cols = [(rng.randrange(4), rng.randrange(9), rng.randrange(3)) for _ in range(120)]
        self.rows = [
            {c: rng.choice((-3, -2, -1, 1, 2, 3, 5)) for c in rng.sample(cols, 4)}
            for _ in range(90)
        ]
        # int letters: str hashes change from one interpreter to the next
        letters = [(name, k, e) for name in range(3) for k in (1, 2) for e in (1, -1)]
        self.words = [tuple(rng.choice(letters) for _ in range(12)) for _ in range(12)]
        relators = [tuple(rng.choice(letters) for _ in range(4)) for _ in range(8)]
        self.pieces = [((), r) for r in relators + [_inverse(r) for r in relators]]
        self.pieces += [(r[:2], _inverse(r[2:])) for r in relators]

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # its garbage has no cycles; a collection would time the heap
        try:
            start = time.perf_counter()
            _eliminate(self.rows)
            _rewrite(self.words, self.pieces)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class Speed:
    """Samples of the kernel taken through a run, one for every ``EVERY_S``
    seconds gone by, and the scales they give."""

    def __init__(self):
        self.kernel = Kernel()
        self.times: list[float] = []    # when each sample ended
        self.samples: list[float] = []  # seconds
        self._due = 0.0

    def sample(self) -> None:
        """Time the kernel once for every sample that fell due since the
        last call (at most ``CATCH_UP`` times), so that the samples follow
        the run's time even when its operations take seconds."""
        now = time.perf_counter()
        if now < self._due:
            return
        due = 1 if not self.samples else min(CATCH_UP, 1 + int((now - self._due) / EVERY_S))
        for _ in range(due):
            self.samples.append(self.kernel())
            self.times.append(time.perf_counter())
        self._due = time.perf_counter() + EVERY_S

    def scale(self) -> float:
        """``NOMINAL_S`` over the kernel's mean time in the whole run."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the kernel's mean time in the samples taken
        from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``,
        widened to the ``LEAST`` nearest samples if there are fewer: multiply a time measured from ``start`` to ``end`` by it
        to get the time on the nominal host."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < LEAST and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return NOMINAL_S / statistics.fmean(self.samples[lo:hi])


def _eliminate(rows) -> int:
    """Rank of ``rows`` by fraction-free elimination; pivots are each row's
    least column."""
    pivots: dict = {}
    for row in rows:
        work = dict(row)
        while work:
            col = min(work)
            prow = pivots.get(col)
            if prow is None:
                g = 0
                for v in work.values():
                    g = math.gcd(g, v)
                pivots[col] = {c: v // g for c, v in work.items()}
                break
            a, b = prow[col], work[col]
            for c in work:
                work[c] *= a
            for c, v in prow.items():
                x = work.get(c, 0) - b * v
                if x:
                    work[c] = x
                else:
                    work.pop(c, None)
            g = 0
            for v in work.values():
                g = math.gcd(g, v)
            if g > 1:
                for c in work:
                    work[c] //= g
    return len(pivots)


def _rewrite(words, pieces) -> int:
    """The distinct words one move away from ``words``, a move replacing
    ``removed`` by ``inserted`` at some position."""
    seen = set()
    for w in words:
        for pos in range(len(w) + 1):
            for removed, inserted in pieces:
                if w[pos:pos + len(removed)] != removed:
                    continue
                seen.add(_free_reduce(w[:pos] + inserted + w[pos + len(removed):]))
    return len(seen)


def _inverse(word):
    return tuple((n, k, -e) for n, k, e in reversed(word))


def _free_reduce(word):
    out: list = []
    for letter in word:
        if out and out[-1][:2] == letter[:2] and out[-1][2] == -letter[2]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)
