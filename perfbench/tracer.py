"""In-process traced run of one ``nelsonlab`` CLI invocation.

Run as ``python perfbench/tracer.py <nelsonlab argv...>`` with ``src`` on
``PYTHONPATH``.  It wraps the package's public layer functions from the
outside, calls ``nelsonlab.cli.main(argv)`` once with stdout captured, and
prints one JSON object: the exit status, the CLI's stdout, and the span
statistics.  No file of the package changes.

A span records calls, inclusive time (outermost occurrences only) and self
time (duration minus the time of its direct child spans).  The package binds
most of these functions by name at import, so each wrapper is installed at
the defining module and at every ``nelsonlab`` module that holds the same
object.  ``numpy.fft.fftn``/``ifftn`` are counted, not timed, and each count
is charged to the enclosing span and, on exit, to its parents.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter

# (defining module, attribute, span name).  Functions sharing a span name
# form one layer group, e.g. the observables functions.
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
    ("spectral", "assemble", "spectral.assemble"),
    ("spectral", "pull_through_residual", "spectral.pull_through"),
    ("spectral", "soft_decomposition_residual", "spectral.telescoping"),
    ("spectral", "effective_mass_numeric", "spectral.effmass"),
    ("fockspace", "ladder_ops", "fockspace.ladder_ops"),
    ("observables", "ground_state_report", "observables"),
    ("observables", "photon_number", "observables"),
    ("observables", "spatial_moment", "observables"),
    ("observables", "overlap_with_decoupled", "observables"),
    ("observables", "vacuum_sector_weight", "observables"),
)
METHOD_SPANS = (
    ("spectral", "AssembledModel", "matvec", "spectral.matvec"),
    ("spectral", "AssembledModel", "apply_D", "spectral.apply_D"),
    ("fockspace", "FockBasis", "__init__", "fockspace.basis"),
)

MB = 2.0**20


class Tracer:
    """Span statistics kept in memory for one traced invocation."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child_s, ffts]
        self._depth: Counter = Counter()  # open spans per name
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.ffts: Counter = Counter()
        self.by_parent: Counter = Counter()  # "name<parent" -> calls
        self.extra: Counter = Counter()  # solver facts read from return values

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0, 0]
            self._stack.append(frame)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                self.ffts[name] += frame[2]
                if not self._depth[name]:
                    self.total_s[name] += dt
                self.by_parent[f"{name}<{parent[0] if parent else ''}"] += 1
                if parent is not None:
                    parent[1] += dt
                    parent[2] += frame[2]

        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self._stack[-1][2] += 1
            return fn(*args, **kwargs)

        return counted

    def to_dict(self) -> dict:
        return {
            key: dict(getattr(self, key))
            for key in ("calls", "total_s", "self_s", "ffts", "by_parent", "extra")
        }


def _rebind(pkg_modules: dict, module: str, attr: str, wrapped) -> None:
    """Install ``wrapped`` wherever the package holds the original object."""
    original = getattr(pkg_modules[module], attr)  # AttributeError on a rename
    for mod in pkg_modules.values():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def instrument(tracer: Tracer):
    """Wrap the layer functions of the loaded package; returns ``cli.main``."""
    import importlib

    import numpy as np

    mods = {
        name: importlib.import_module(f"nelsonlab.{name}")
        for name in ("cli", "verify", "spectral", "particle", "fockspace", "observables")
    }
    for module, attr, name in FUNCTION_SPANS:
        _rebind(mods, module, attr, tracer.wrap(name, getattr(mods[module], attr)))
    for module, cls, attr, name in METHOD_SPANS:
        klass = getattr(mods[module], cls)
        setattr(klass, attr, tracer.wrap(name, getattr(klass, attr)))

    lanczos = mods["spectral"].lanczos_lowest
    lanczos_span = tracer.wrap("spectral.lanczos", lanczos)

    def traced_lanczos(matvec, dim, *args, **kwargs):
        out = lanczos_span(tracer.wrap("spectral.lanczos.op", matvec), dim, *args, **kwargs)
        iters, vec = out[3], out[1]
        tracer.extra["lanczos.iters"] += iters
        basis_mb = (iters + 1) * dim * vec.itemsize / MB
        tracer.extra["lanczos.basis_mb"] = max(tracer.extra["lanczos.basis_mb"], basis_mb)
        return out

    _rebind(mods, "spectral", "lanczos_lowest", traced_lanczos)

    atomic_span = tracer.wrap("particle.atomic_ground", mods["particle"].atomic_ground)

    def traced_atomic(*args, **kwargs):
        state = atomic_span(*args, **kwargs)
        tracer.extra["atomic.iters"] += state.iterations
        return state

    _rebind(mods, "particle", "atomic_ground", traced_atomic)

    for attr in ("fftn", "ifftn"):
        setattr(np.fft, attr, tracer.count_fft(getattr(np.fft, attr)))
    return mods["cli"].main


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from ``Tracer.to_dict()``."""
    calls = Counter(stats["calls"])
    total, self_s = Counter(stats["total_s"]), Counter(stats["self_s"])
    ffts, by_parent, extra = Counter(stats["ffts"]), Counter(stats["by_parent"]), Counter(stats["extra"])
    matvecs = calls["spectral.matvec"]
    return {
        "spectral.matvec.calls": (matvecs, "count"),
        "spectral.matvec.s": (total["spectral.matvec"], "s"),
        "spectral.matvec.ffts_per_call": (ffts["spectral.matvec"] / matvecs if matvecs else 0.0, "count"),
        "spectral.lanczos.calls": (calls["spectral.lanczos"], "count"),
        "spectral.lanczos.iters": (extra["lanczos.iters"], "count"),
        "spectral.lanczos.op_s": (total["spectral.lanczos.op"], "s"),
        "spectral.lanczos.self_s": (self_s["spectral.lanczos"], "s"),
        "spectral.lanczos.basis_mb": (extra["lanczos.basis_mb"], "MB"),
        "spectral.assemble.calls": (calls["spectral.assemble"], "count"),
        "spectral.assemble.s": (total["spectral.assemble"], "s"),
        "spectral.apply_D.calls": (calls["spectral.apply_D"], "count"),
        "spectral.apply_D.s": (total["spectral.apply_D"], "s"),
        "spectral.pull_through.s": (total["spectral.pull_through"], "s"),
        "spectral.telescoping.s": (total["spectral.telescoping"], "s"),
        "spectral.effmass.self_s": (self_s["spectral.effmass"], "s"),
        "spectral.effmass.cg_applications": (by_parent["spectral.matvec<spectral.effmass"], "count"),
        "particle.atomic_ground.s": (total["particle.atomic_ground"], "s"),
        "particle.atomic_ground.iters": (extra["atomic.iters"], "count"),
        "fockspace.basis.s": (total["fockspace.basis"], "s"),
        "fockspace.ladder_ops.calls": (calls["fockspace.ladder_ops"], "count"),
        "fockspace.ladder_ops.s": (total["fockspace.ladder_ops"], "s"),
        "observables.s": (total["observables"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "verify.run_suite.calls": (calls["verify.run_suite"], "count"),
        "verify.run_suite.self_s": (self_s["verify.run_suite"], "s"),
    }


# Counts that must repeat exactly across runs of one commit and argv.
DETERMINISTIC = (
    "spectral.matvec.calls",
    "spectral.matvec.ffts_per_call",
    "spectral.lanczos.calls",
    "spectral.lanczos.iters",
    "spectral.assemble.calls",
    "spectral.apply_D.calls",
    "spectral.effmass.cg_applications",
    "particle.atomic_ground.iters",
    "fockspace.ladder_ops.calls",
    "verify.run_suite.calls",
)


def silent_spans(stats: dict, required) -> list[str]:
    """Required spans that never fired or recorded no self time."""
    calls, self_s = stats["calls"], stats["self_s"]
    return [name for name in required if not calls.get(name) or self_s.get(name, 0.0) <= 0.0]


def main(argv: list[str]) -> int:
    import nelsonlab.cli  # noqa: F401 - pins the numeric backends before numpy loads

    tracer = Tracer()
    cli_main = instrument(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli_main(argv)
    json.dump({"status": status, "stdout": buf.getvalue(), "stats": tracer.to_dict()}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
