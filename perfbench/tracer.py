"""Spans and counters around the public functions of the ritusfw modules.

``Tracer.install`` replaces each public function of the traced modules, in
every loaded ritusfw namespace that binds it, with a wrapper that records a
span: name, start, end, parent span and the number of the ``cli.run`` call it
belongs to (an ``emit_report`` after a run shares that run's number).
``GridOperators`` is traced through its ``__init__``.  Spans stay in memory
until the caller writes them out; ``uninstall`` restores every binding.

Self time is a span's duration minus the durations of its direct children.
Work a function does outside any child span (numpy calls, Python loops, the
counted ``evaluate_potential``) stays in its self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "ritusfw"

# clifford is not traced: its calls take microseconds and fold into their callers.
MODULES = ("field_profiles", "spectral_grid", "operators", "ritus_basis",
           "foldy_wouthuysen", "propagator", "cli")

# build_grid calls evaluate_potential ~1e5 times per grid on 1-element arrays;
# a span per call would cost more than the call.  It is counted (calls and
# points) and its time stays in the self time of its caller.
COUNTED = frozenset({"field_profiles.evaluate_potential"})

# per-layer self-time metric -> the spans it sums; a name ending in "." takes
# every span of that module
SELF_TIME = {
    "spectral_grid.build_grid_s": ("spectral_grid.build_grid",),
    "spectral_grid.solve_channel_s": ("spectral_grid.solve_channel",),
    "operators.grid_operators_s": ("operators.",),
    "ritus_basis.assemble_level_s": ("ritus_basis.assemble_level",
                                     "ritus_basis.on_shell_level",
                                     "ritus_basis.bar_momentum"),
    "ritus_basis.verifiers_s": ("ritus_basis.verify_eigen_relation",
                                "ritus_basis.verify_gpEp",
                                "ritus_basis.zero_mode_annihilation",
                                "ritus_basis.orthonormality_matrix"),
    "foldy_wouthuysen.field_fw_s": ("foldy_wouthuysen.field_fw",
                                    "foldy_wouthuysen.field_fw_from_levels",
                                    "foldy_wouthuysen.theta",
                                    "foldy_wouthuysen.restricted_fw"),
    "foldy_wouthuysen.checks_s": ("foldy_wouthuysen.unitarity_residual",
                                  "foldy_wouthuysen.projector_commutation_residual",
                                  "foldy_wouthuysen.restricted_hamiltonian",
                                  "foldy_wouthuysen.transform_hamiltonian",
                                  "foldy_wouthuysen.verify_main_claim",
                                  "foldy_wouthuysen.bd_iteration",
                                  "foldy_wouthuysen.free_fw",
                                  "foldy_wouthuysen.free_fw_hamiltonian",
                                  "foldy_wouthuysen.fw_series_hamiltonian"),
    "propagator.project_propagator_s": ("propagator.project_propagator",
                                        "propagator.pole_sweep",
                                        "propagator.diagonal_propagator"),
    "cli.self_s": ("cli.run",),
    "cli.emit_report_s": ("cli.emit_report",),
}

# object builds whose argument keys and array sizes are recorded
BUILDS = {"operators.GridOperators": "operators",
          "foldy_wouthuysen.field_fw": "foldy_wouthuysen"}


def _member(name: str, members) -> bool:
    return any(name == m or (m.endswith(".") and name.startswith(m)) for m in members)


def _value_key(value):
    if isinstance(value, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    return value


def _profile_key(profile) -> tuple:
    return (profile.kind,) + tuple(sorted((k, _value_key(v)) for k, v in profile.params.items()))


def _build_key(args: dict) -> tuple:
    """The arguments that decide what a GridOperators or field_fw build holds."""
    return (args["rep"].variant, _profile_key(args["profile"]), float(args["p_y"]),
            float(args["e"]), args["grid"], args.get("m"), args.get("n_max"))


def _array_bytes(obj) -> int:
    """nbytes of the arrays held directly (or in a tuple) on an object."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


class Tracer:
    """In-memory spans and counters; install around traced calls only."""

    def __init__(self):
        self.spans = []            # [run, parent span, name, start, end]; index = span id
        self.run = 0               # number of traced cli.run calls so far
        self.calls = defaultdict(int)
        self.points = 0            # array elements passed to counted evaluate_potential
        self.builds = defaultdict(list)  # layer -> [(run, key, array bytes)]
        self.report_bytes = 0
        self._stack = []
        self._saved = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for namespace in loaded:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._bind(namespace, attr, wrapper)
        ops = importlib.import_module(f"{PACKAGE}.operators").GridOperators
        self._bind(ops, "__init__", self._wrap("operators.GridOperators", ops.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _bind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(profile, x):
                self.calls[name] += 1
                self.points += np.size(x)
                return fn(profile, x)
            return counted

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if name == "cli.run" and not self._stack:
                self.run += 1
            self.calls[name] += 1
            span = len(self.spans)
            self.spans.append([self.run, self._stack[-1] if self._stack else None, name, 0.0, 0.0])
            self._stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span][3:] = [start, end]
            if name in BUILDS:
                bound = signature.bind(*args, **kwargs).arguments
                built = bound["self"] if "self" in bound else out
                self.builds[BUILDS[name]].append((self.run, _build_key(bound), _array_bytes(built)))
            elif name == "cli.emit_report":
                self.report_bytes += len(out)
            return out
        return spanned

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus that of its direct children."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def functions(self) -> dict:
        """name -> calls, total self seconds and total inclusive seconds."""
        table = {name: {"calls": n, "self_s": 0.0, "total_s": 0.0}
                 for name, n in sorted(self.calls.items())}
        for (_, _, name, start, end), own in zip(self.spans, self.self_times()):
            table[name]["self_s"] += own
            table[name]["total_s"] += end - start
        return table

    def layer_metrics(self) -> dict:
        """Per-layer metrics, each a mean per traced cli.run call."""
        runs = max(self.run, 1)
        table = self.functions()
        out = {metric: sum(row["self_s"] for name, row in table.items() if _member(name, members)) / runs
               for metric, members in SELF_TIME.items()}
        potential = self.calls["field_profiles.evaluate_potential"]
        out["field_profiles.evaluate_potential_calls"] = potential / runs
        out["field_profiles.points_per_call"] = self.points / potential if potential else 0.0
        out["spectral_grid.solve_channel_calls"] = self.calls["spectral_grid.solve_channel"] / runs
        out["propagator.project_propagator_calls"] = self.calls["propagator.project_propagator"] / runs
        for layer, prefix in (("operators", "operators.grid_operators"),
                              ("foldy_wouthuysen", "foldy_wouthuysen.field_fw")):
            builds = self.builds[layer]
            n = len(builds)
            out[prefix + "_builds"] = n / runs
            out[prefix + "_distinct_ratio"] = len({(run, key) for run, key, _ in builds}) / n if n else 0.0
            out[layer + ".dense_mb"] = sum(b for _, _, b in builds) / n / 2**20 if n else 0.0
        out["cli.report_bytes"] = self.report_bytes / runs
        return out
