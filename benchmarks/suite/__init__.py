"""Two-clock benchmark suite (``python -m benchmarks.suite``).

Seven end-to-end workloads drive the engine from outside through its
public functions and report two kinds of numbers that are never mixed:
*simulated* cost (``SimClock`` milliseconds, ``DiskStats`` page counts —
deterministic, compared exactly) and *host* cost (wall seconds and peak
RSS of running the simulator — medians over repeated cycles, compared
with a bound).  ``BENCHMARK.json`` at the repository root declares every
metric; ``README.md`` in this directory explains each one.
"""

#: Default ``--scale``: a quarter of ISSUE 11's tables.  The driver's
#: contract caps the whole run matrix (4 + 22 x 7 runs) at 3420 s, about
#: 20 s a run including set-up; at this scale one cycle of the slowest
#: workload is about 2 s, so a 10 s run holds five or more cycles.
DEFAULT_SCALE = 0.25
#: Default minimum number of cycles of an untraced run.
DEFAULT_REPEATS = 3
