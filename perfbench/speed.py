"""Machine-speed probe: operation times scaled to a reference speed.

The cores this benchmark runs on are shared, and their speed drifts by
10-20 % over tens of seconds to minutes.  Package code, a pure-Python
loop and a small LAPACK solve slow down together, so no statistic inside
one run averages the drift away.  The measuring interpreter therefore
runs a fixed probe, which uses no package code, while it works:

* BOUNDARY_PROBES times before and after every operation, and
* on entry to a hooked package function (HOOKS), when at least
  INTERVAL_S have passed since the previous probe, so that long
  operations are sampled throughout.

An operation's wall time excludes the probes that ran inside it.  Its
time at the reference speed is that wall time times PROBE_REF_S over the
median probe time taken from just before it to just after it.  A change
to the package moves the wall time and not the probe, so it shows at its
full size.
"""

import functools
import statistics
import sys
import time

import numpy as np

import tracing

# median probe time on the reference machine (2 shared cores of an Intel
# Xeon, Python 3.11, numpy 2.4, one BLAS thread); fixes the *_ref scale
PROBE_REF_S = 0.0026
INTERVAL_S = 0.1
BOUNDARY_PROBES = 3
SETTLE_PROBES = 15

# package functions whose entry may run a probe; missing names are skipped
HOOKS = {
    "lattice": ("sector_basis", "build_hamiltonian", "diagonalize", "build_transfer_matrix"),
    "bethe": ("solve_log_form", "solve_complex"),
    "thermo": ("solve_sigma", "solve_rho", "_anderson_step"),
    "aba": ("monodromy_apply",),
    "curve": ("solve_points",),
    "rmatrix": ("ybe_residual",),
}

_MATRIX = np.random.default_rng(1706).standard_normal((48, 48))


def probe():
    """Time one fixed piece of work: a small LAPACK eigensolve and a Python loop."""
    t0 = time.perf_counter()
    np.linalg.eigvals(_MATRIX)
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


def settled_probe():
    """Median of SETTLE_PROBES back-to-back probes."""
    return statistics.median(probe() for _ in range(SETTLE_PROBES))


class SpeedMeter:
    """Probe samples of one interpreter and the probe time to leave out."""

    def __init__(self):
        self.samples = []
        self._probe_s = 0.0
        self._last = time.perf_counter()

    def _probe(self):
        d = probe()
        self.samples.append(d)
        self._probe_s += d
        self._last = time.perf_counter()

    def maybe_probe(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._probe()

    def install(self):
        """Wrap HOOKS in every loaded genus5chain module that holds them."""
        for mod_name, names in HOOKS.items():
            module = sys.modules.get(f"genus5chain.{mod_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is not None:
                    tracing.rebind(original, self._wrap(original))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.maybe_probe()
            return fn(*args, **kwargs)

        return wrapper

    def start(self):
        """Probe, then start timing an operation; pass the result to stop()."""
        first = len(self.samples)
        for _ in range(BOUNDARY_PROBES):
            self._probe()
        return first, self._probe_s, time.perf_counter()

    def stop(self, token):
        """(wall time without probes, time at the reference speed) since start()."""
        end = time.perf_counter()
        first, probe_s, t0 = token
        wall = end - t0 - (self._probe_s - probe_s)
        for _ in range(BOUNDARY_PROBES):
            self._probe()
        return wall, wall * PROBE_REF_S / statistics.median(self.samples[first:])
