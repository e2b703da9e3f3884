"""A fixed reference kernel that tells how fast the machine runs right now.

The benchmark shares a host with other tenants' machines, and what they
run changes how fast the same arithmetic goes here: by 30-60% over spans
of tens of seconds to minutes, in CPU time, with steal time already left
out (``clock.py``).  So the gate times this kernel right before every
training step, and the end-to-end times are scaled by how long it took
against its time on a quiet machine (``bench.py``).

The kernel is plain numpy and independent of gradecomp, so a change to
the program cannot change it.  It does the kinds of work a training step
does, at the pinned model's sizes: a batch of 20 through a 32-100-100
MLP and back, and dot products and an axpy on vectors of 13,703
parameters.  It runs twice and only the second call is timed: the first
brings its 0.9 MB of data back into the cache, so the timed call does
not depend on how much of the cache the training step before it used,
and a change to the program's memory footprint cannot move it.
"""

from __future__ import annotations

import numpy as np

import clock

#: time of one timed reference call, in seconds on the benchmark's clock,
#: on a quiet 2-vCPU KVM guest of a Xeon (Sapphire Rapids) host
SECONDS = 0.1e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((20, 32))
_W1 = _rng.standard_normal((32, 100))
_W2 = _rng.standard_normal((100, 100))
_V = _rng.standard_normal((8, 13_703))


def _kernel() -> float:
    h = np.tanh(_X @ _W1)
    z = np.tanh(h @ _W2)
    grad_w2 = z.T @ h
    grad_h = z @ _W2.T
    c = _V @ _V[0]
    u = _V[1] - c[1] * _V[0]
    return float(u @ u) + float(grad_w2[0, 0]) + float(grad_h[0, 0])


def time_once() -> float:
    """Seconds, on the benchmark's clock, of one warm reference call."""
    _kernel()
    start = clock.now()
    _kernel()
    return clock.now() - start
