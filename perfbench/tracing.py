"""Span tracing of the cartan_ds layers, installed from outside the package.

The tracer wraps the public functions listed in ``TRACED`` and records one
span per call: name, start, end, parent span and op id.  A name bound into
another module by ``from .x import f`` is a separate reference, so every
module of the package that holds the function gets the wrapper; otherwise
calls between modules would go untraced.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any

#: Traced functions, by defining module of the ``cartan_ds`` package.
TRACED: dict[str, tuple[str, ...]] = {
    "linalg": ("mat_mul", "solve", "inverse"),
    "rootdata": (
        "dominant_representative",
        "stabilizer_generators",
        "weyl_orbit",
        "enumerate_weyl",
    ),
    "realform": ("validate_involution", "restricted_roots", "verify_exact_sequence"),
    "criterion": ("theta_in_weyl", "extended_stabilizer", "compact_cartan_verdict"),
    "exponents": ("cone_position", "dual_chamber", "orbit_plus"),
    "translation": ("strong_regularization",),
    "catalog": ("load_catalog", "catalog_form", "entry_involution"),
    "cli": ("main",),
}

#: Functions whose result size is counted as ``<name>.elements``.
COUNT_ELEMENTS = ("rootdata.weyl_orbit", "rootdata.enumerate_weyl")
THETA_IN_WEYL = "criterion.theta_in_weyl"
STRONG_REGULARIZATION = "translation.strong_regularization"
ROOT_SPAN = "op"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for module, functions in TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            if name in COUNT_ELEMENTS:
                units[f"{name}.elements"] = "count"
    units[f"{THETA_IN_WEYL}.repeat_frac"] = "ratio"
    units[f"{STRONG_REGULARIZATION}.success_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Collects spans while installed; ``metrics`` reduces them per function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[Any] = []
        self._stack: list[int] = []
        self._op: Any = None
        self._patched: list[tuple[object, str, object]] = []
        self.elements: Counter[str] = Counter()
        self.theta_keys: set = set()
        self.theta_repeats = 0
        self.sr_successes = 0

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: Any):
        """Root span of one op; every span opened inside carries its id."""
        self._op = op_id
        idx = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def _count_theta_key(self, rs, theta, *_, **__) -> None:
        key = (rs.cartan_type, getattr(theta, "theta", theta))
        if key in self.theta_keys:
            self.theta_repeats += 1
        else:
            self.theta_keys.add(key)

    def _wrap(self, name: str, fn):
        enter, exit_, elements = self._enter, self._exit, self.elements
        before = self._count_theta_key if name == THETA_IN_WEYL else None
        counted = name in COUNT_ELEMENTS
        is_sr = name == STRONG_REGULARIZATION

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if counted:
                elements[name] += len(result)
            if is_sr:
                self.sr_successes += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        package = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "cartan_ds" or key.startswith("cartan_ds."))
        ]
        for module, functions in TRACED.items():
            home = sys.modules[f"cartan_ds.{module}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module}.{function}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        n = len(self.names)
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(n)]

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, keyed as in ``metric_units``."""
        selfs = self.self_times()
        calls: Counter[str] = Counter(self.names)
        self_s: Counter[str] = Counter()
        for name, s in zip(self.names, selfs):
            self_s[name] += s
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for function in functions:
                name = f"{module}.{function}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
                if name in COUNT_ELEMENTS:
                    out[f"{name}.elements"] = self.elements[name]
        # Both ratios are 0 when the function was never called; the call
        # count next to them tells that case apart.
        theta_calls = calls[THETA_IN_WEYL]
        out[f"{THETA_IN_WEYL}.repeat_frac"] = (
            self.theta_repeats / theta_calls if theta_calls else 0.0
        )
        sr_calls = calls[STRONG_REGULARIZATION]
        out[f"{STRONG_REGULARIZATION}.success_frac"] = (
            self.sr_successes / sr_calls if sr_calls else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line of run context, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "op": self.op_ids[i],
                        }
                    )
                    + "\n"
                )
