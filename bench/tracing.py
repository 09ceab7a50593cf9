"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
``nhrlc`` module that binds it (``nhrlc.spectral.eigensystem`` and
``nhrlc.report.eigensystem`` are the same function bound twice, and both
names are replaced), so calls between modules are traced too. A wrapper
returns exactly what the wrapped function returns and re-raises what it
raises. Spans live in memory as (name, start, end, parent) and are folded
into per-function totals after each op.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

# The layers, as the modules of src/nhrlc, and the functions traced in each:
# every public function some workload reaches, plus the CLI's subcommand
# handlers, which carry the sweep loop and the CSV and JSON writing.
TRACED = {
    "circuit": ("hamiltonian", "gain_hamiltonian", "classify"),
    "cxmat": ("as_cmat", "as_cvec2", "outer", "eig2", "expm",
              "sqrt_pos_hermitian", "trace_det", "operator_norm"),
    "spectral": ("pairing", "eigensystem", "ep_system", "expand"),
    "metric": ("metric_pair", "positive_pair", "similar_hamiltonian", "antilinear_u",
               "similar_hamiltonian_via_u", "verify_intertwining", "solve_intertwiners"),
    "pseudofermion": ("pf_construct", "pf_identify", "hpf_build", "ladder_check",
                      "fermionize", "susy_partner", "pt_probe", "pt_check"),
    "mequiv": ("m_equivalent", "is_similar"),
    "dynamics": ("uniform_grid", "initial_state", "evolve_closed_form", "evolve_spectral",
                 "integrate_rk4", "evolve_integrated", "compare", "write_csv"),
    "report": ("rk_tolerance", "c2j", "m2j", "build_report"),
    "cli": ("main", "_cmd_analyze", "_cmd_sweep", "_cmd_evolve", "_cmd_mequiv"),
}


def rk4_substeps(times, step) -> int:
    """Substeps ``integrate_rk4`` takes on ``times``: ceil(span/step) per interval."""
    ts = [float(t) for t in times]
    return sum(max(1, math.ceil((b - a) / step - 1e-12)) for a, b in zip(ts, ts[1:]))


class Tracer:
    """Records spans of the traced functions and folds them per op."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"dynamics.rk4_substeps": 0, "dynamics.samples": 0}
        self._restore: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name == "dynamics.integrate_rk4"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if counted:
                    self._count_rk4(*args, **kwargs)

        return wrapper

    def _count_rk4(self, h, state0, times, step):
        self.counts["dynamics.samples"] += len(times)
        self.counts["dynamics.rk4_substeps"] += rk4_substeps(times, step)

    def install(self) -> None:
        """Swap every traced function for its wrapper in all nhrlc modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nhrlc" or n.startswith("nhrlc.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"nhrlc.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                self.calls.setdefault(f"{layer}.{fname}", 0)
                self.self_s.setdefault(f"{layer}.{fname}", 0.0)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fold(self) -> None:
        """Add the recorded spans to the per-function totals and drop them."""
        for name, start, end, parent in self.spans:
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur
            if parent >= 0:
                self.self_s[self.spans[parent][0]] -= dur
        self.spans.clear()
