"""The host's speed, from a reference probe timed between operations.

A shared host runs the same pure-Python code up to about twice as slowly in
some seconds as in others, and its slow spells can outlast a whole run.
``HostSpeed`` times a fixed piece of pure-Python work owned by the benchmark
(``probe.py``: row insertion of a fixed word, the kind of work the library
does) between operations, and scales a measured time to a host on which the
probe takes its reference time: the time times the reference over the median
of the probes nearest it.  Where the operations are child processes, the
probe is one too, so that it also tracks the cost of starting an interpreter.
The probe never calls taquin, so a change to taquin moves a scaled time as
much as the raw one.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from statistics import median
from time import perf_counter

from probe import probe_work

PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"

REFERENCE_S = 0.005  # the probe in this process
CHILD_REFERENCE_S = 0.020  # the probe in a fresh interpreter, its start included
WINDOW = 4  # probes on each side of a time that set its scale
GAP = 8  # operation time between two probes, in reference times of the probe


class HostSpeed:
    """Probe times with their start times, in the order they were taken."""

    def __init__(self, child: bool = False) -> None:
        self.child = child
        self.reference_s = CHILD_REFERENCE_S if child else REFERENCE_S
        self.gap_s = GAP * self.reference_s
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def probe(self, times: int = 1) -> None:
        # The collector stays off so that garbage left by an operation is
        # not charged to the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = perf_counter()
                if self.child:
                    subprocess.run([sys.executable, "-S", str(PROBE_SCRIPT)], check=True)
                else:
                    probe_work()
                self.seconds.append(perf_counter() - start)
                self.starts.append(start)
        finally:
            if enabled:
                gc.enable()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed of the host."""
        i = bisect_left(self.starts, start + seconds / 2)
        near = self.seconds[max(0, i - WINDOW): i + WINDOW]
        return seconds * self.reference_s / median(near)
