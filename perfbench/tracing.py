"""Timing wrappers on the package's public functions, for the traced run.

`Tracer.install` replaces each function in TARGETS by a wrapper in every
loaded `genus5chain` module that holds it (`rebind`), so names bound by
`from .x import f` (for example `aba.build_transfer_matrix`,
`aba.r_matrix` and `lattice.r_matrix`) are timed too.  Spans stay in
memory: one list per call with its name, parent span, start and end.  A
span's self time is its duration minus the durations of its direct
children.
"""

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

TARGETS = {
    "lattice": (
        "sector_basis", "build_hamiltonian", "build_transfer_matrix", "diagonalize",
        "lowest_per_sector", "ground_state_energy", "lowest_two_energies",
        "spectrum_is_real", "reality_threshold", "symmetry_check_neg_u",
        "sector_1_lowest", "f0_per_site",
    ),
    "bethe": (
        "solve_log_form", "solve_complex", "track_state", "finite_size_gap",
        "eigenvalue_lambda", "bethe_defect", "classify_roots", "curve_points_for_roots",
    ),
    "thermo": ("solve_sigma", "solve_rho", "gap", "bulk_energy"),
    "aba": (
        "on_shell_eigenvector", "build_phi", "eigenstate_residual", "monodromy_apply",
        "state_sector",
    ),
    "curve": ("solve_points", "points_with_Z", "sample_points"),
    "rmatrix": ("weights", "r_matrix", "ybe_residual", "phase_shift"),
}

# name -> unit, in the order BENCHMARK.json lists them; values are per traced round
LAYER_METRICS = {
    "lattice.build_hamiltonian.calls": "count",
    "lattice.build_hamiltonian.self_s": "s",
    "lattice.build_hamiltonian.dim_sum": "count",
    "lattice.sector_basis.self_s": "s",
    "lattice.diagonalize.dense_self_s": "s",
    "lattice.diagonalize.arpack_self_s": "s",
    "lattice.diagonalize.fallback_calls": "count",
    "lattice.spectrum_is_real.calls": "count",
    "bethe.solve_log_form.calls": "count",
    "bethe.solve_log_form.self_s": "s",
    "bethe.solve_complex.calls": "count",
    "bethe.solve_complex.failed": "count",
    "bethe.solve_complex.self_s": "s",
    "bethe.track_state.self_s": "s",
    "thermo.solve_sigma.self_s": "s",
    "thermo.solve_sigma.peak_alloc_mb": "MB",
    "thermo.solve_rho.self_s": "s",
    "lattice.build_transfer_matrix.self_s": "s",
    "aba.on_shell_eigenvector.self_s": "s",
    "aba.eigenstate_residual.self_s": "s",
    "aba.monodromy_apply.calls": "count",
    "curve.solve_points.calls": "count",
    "curve.solve_points.self_s": "s",
    "curve.points_with_Z.self_s": "s",
    "rmatrix.weights.calls": "count",
    "rmatrix.ybe_residual.self_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_share": "ratio",
    "speed.probe_s": "s",
    "speed.wall_raw_s": "s",
}

def rebind(original, wrapper):
    """Replace `original` by `wrapper` under every name in the loaded genus5chain modules."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("genus5chain"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# span fields
NAME, PARENT, START, END, CHILD, FAILED, INFO = range(7)


class Tracer:
    """Records spans of wrapped calls while `enabled` is true."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def install(self):
        for mod_name, names in TARGETS.items():
            module = sys.modules[f"genus5chain.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                rebind(original, self._wrap(f"{mod_name}.{name}", original))

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        measure_alloc = qualname == "thermo.solve_sigma"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [qualname, stack[-1] if stack else -1, 0.0, 0.0, 0.0, False, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                if alloc:
                    span[INFO] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if qualname == "lattice.diagonalize":
                span[INFO] = result.method
            elif qualname == "lattice.build_hamiltonian":
                span[INFO] = result.dim
            return result

        return wrapper


def summarize(spans, traced_rounds, traced_wall_s):
    """Per-layer figures over the given spans, each divided by the round count."""
    calls = Counter()
    failed = Counter()
    self_s = defaultdict(float)
    dim_sum = 0
    methods = Counter()
    method_self = defaultdict(float)
    peak_alloc = 0
    top_level = 0.0
    for name, parent, start, end, child, fail, info in spans:
        own = end - start - child
        calls[name] += 1
        failed[name] += fail
        self_s[name] += own
        if parent < 0:
            top_level += end - start
        if name == "lattice.diagonalize" and info is not None:
            kind = "arpack" if info.startswith("arpack") else info
            methods[info] += 1
            method_self[kind] += own
        elif name == "lattice.build_hamiltonian" and info is not None:
            dim_sum += info
        elif name == "thermo.solve_sigma" and info is not None:
            peak_alloc = max(peak_alloc, info)

    per = 1.0 / max(traced_rounds, 1)
    values = {}
    for metric in LAYER_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[head] * per
        elif stat == "failed":
            values[metric] = failed[head] * per
        elif stat == "self_s":
            values[metric] = self_s[head] * per
    values["lattice.build_hamiltonian.dim_sum"] = dim_sum * per
    values["lattice.diagonalize.dense_self_s"] = method_self["dense"] * per
    # the dense fallback runs only after ARPACK gave up, so it is ARPACK's cost
    values["lattice.diagonalize.arpack_self_s"] = (
        method_self["arpack"] + method_self["dense-fallback"]) * per
    values["lattice.diagonalize.fallback_calls"] = methods["dense-fallback"] * per
    values["thermo.solve_sigma.peak_alloc_mb"] = peak_alloc / 2**20
    values["trace.top_level_share"] = top_level / traced_wall_s if traced_wall_s > 0 else 0.0
    detail = {
        "calls": dict(calls),
        "failed": {k: v for k, v in failed.items() if v},
        "self_s": dict(self_s),
        "diagonalize_methods": dict(methods),
        "top_level_s": top_level,
        "traced_wall_s": traced_wall_s,
        "traced_rounds": traced_rounds,
    }
    return values, detail
