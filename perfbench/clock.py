"""The clock every benchmark time is read from.

It is the CPU time of the benchmark process, not wall time.  On a shared
virtual machine the hypervisor takes the CPU away from the guest for
stretches of milliseconds to seconds (steal time, the ``steal`` column of
``/proc/stat``); wall time counts those stretches and the process CPU
time does not.  The program runs in one process with BLAS on one thread
and does no blocking I/O beyond small writes to the page cache, so on a
dedicated machine the two clocks agree, and on a shared one only the CPU
time stays put from run to run.
"""

from __future__ import annotations

import time

now = time.process_time
