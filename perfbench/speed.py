"""Speed probes, for timings that stay comparable on a noisy shared host.

On a 2-vCPU cloud host the speed at which a core runs Python code changes by
up to 2x from one second to the next (other tenants on the same physical
core); the CPU time of the process moves with it, so neither wall time nor
CPU time is steady.  So every measured interval is rescaled to the time it
would have taken at a reference speed, using a probe whose own cost does not
depend on taglab and which runs next to the measured work:

- inside a process (``Sampler``), a fixed pure-Python probe runs every
  PROBE_EVERY_S from a SIGALRM handler, and

      reference seconds = raw seconds * mean(PROBE_REF_S / probe seconds)

  over the probes taken during (and just around) the interval;
- for a child process (``StartUpClock``), the probe is a bare interpreter
  start-up (``python -c pass``) right before and right after the child,
  since process start-up (exec, page faults, unmarshalling) does not track a
  pure-Python loop:

      reference seconds = raw seconds * BARE_REF_S / mean(bare before, after)

A change that makes taglab do more work still shows in full.  Raw wall
times are reported alongside.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import subprocess
import sys
from time import perf_counter

# Probe duration at the reference speed: the fast mode of a 2.1 GHz Xeon
# vCPU running CPython 3.11.  It only sets the unit of reference seconds.
PROBE_REF_S = 0.00012
PROBE_EVERY_S = 0.025  # in-process sampling period
WINDOW_S = 0.3  # probes this close to an interval also describe its speed
# Bare interpreter start-up at the reference speed (CPython 3.11 on the same
# host); it only sets the unit of reference seconds for child processes.
BARE_REF_S = 0.057


def probe() -> float:
    """Seconds taken by a fixed mix of string slicing, concatenation and hashing."""
    start = perf_counter()
    word = "100100100" * 30
    seen = {}
    for i in range(400):
        word = word[3:] + ("1101" if word[0] == "1" else "00")
        seen[word[:12]] = i
        if len(word) > 400:
            word = word[:300]
    return perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so probes see the CPU
    the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Timeline of probes: (start, end, duration), kept in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        """One discarded warm-up probe, then the timed one: a cold probe would
        be slowed by however much cache the measured code has just used.
        Both are excluded from the measured interval."""
        self.starts.append(perf_counter())
        probe()
        self.durations.append(probe())
        self.ends.append(perf_counter())

    @contextlib.contextmanager
    def alarm(self):
        """Probe every PROBE_EVERY_S from a SIGALRM handler (same thread, no threads)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1], probe time excluded."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:  # no probe near: use the closest one
            lo = min(max(lo, 1), len(self.starts)) - 1
            hi = lo + 1
        inside = sum(max(0.0, min(e, t1) - max(s, t0))
                     for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        factors = [PROBE_REF_S / d for d in self.durations[lo:hi]]
        return (t1 - t0 - inside) * sum(factors) / len(factors)


class StartUpClock:
    """Times child processes against bare interpreter start-ups.

    Each child runs between two bare start-ups; the one after a child is the
    one before the next.  ``bares`` keeps every bare start-up's raw seconds.
    """

    def __init__(self, env: dict, cwd):
        self.env, self.cwd = env, cwd
        self.bares: list[float] = []

    def _bare(self) -> float:
        start = perf_counter()
        # No timeout: with one, ``wait`` polls with sleeps of up to 50 ms,
        # which would quantize the probe.
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd, check=True)
        self.bares.append(perf_counter() - start)
        return self.bares[-1]

    def run(self, argv: list[str], **kwargs):
        """(reference seconds, raw seconds, completed process) of one child."""
        before = self.bares[-1] if self.bares else self._bare()
        start = perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=self.cwd, check=False, **kwargs)
        raw_s = perf_counter() - start
        return raw_s * 2 * BARE_REF_S / (before + self._bare()), raw_s, proc
