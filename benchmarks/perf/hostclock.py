"""The benchmark's host clock, and how repetitions are summarised.

*Host seconds* here are CPU seconds of this process
(``time.process_time``).  Every workload is one Python thread that does
no I/O, so on an idle machine CPU time and wall time agree within a
percent; on the shared 2-core box this benchmark was built on they do
not: the hypervisor steals 5-20 % of the wall clock in bursts of a few
seconds (``steal`` in ``/proc/stat``), and a burst landing in a
measured section would read as a regression of the code under test.

Contention only ever adds time.  So each host metric reports the
*fastest* repetition of a run — the estimate of the uncontended cost —
and the median, maximum and count are printed beside it.  Measured
here over six runs of three repetitions: medians spread 18 %, fastest
repetitions 7 %.
"""

import time

host_clock = time.process_time


def best(samples):
    """The summary of repeated host timings: the fastest one."""
    return min(samples)
