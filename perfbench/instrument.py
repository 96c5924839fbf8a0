"""Timing wrappers installed around the package's calls for one round.

The package has no hooks of its own, so the benchmark swaps module
attributes that the package looks up at call time (``engine.parareal_solve``,
``integrators.rk_step``, ...) for wrappers, and puts the originals back when
the round ends.  The package's own code is not changed.

Two levels:

* untraced (``trace=False``): spans only around the solve and the serial
  reference walk, a few per solve, which the end-to-end metrics need;
* traced (``trace=True``): spans at every module boundary the per-layer
  metrics name, plus counters.  Calls made hundreds of thousands of times per
  round (right-hand sides, Jacobians, RK steps) are counted and timed in
  aggregate instead of as spans, so memory stays bounded.

A span is ``(id, parent, name, start, end)``; a layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

import numpy as np

from paratime import (bounds, criteria, engine, experiments, integrators,
                      metrics, systems)

REFERENCE_SPANS = ("engine.fine_serial_reference", "experiments._ReferenceCache")

# Per-layer metrics reported from a traced round: name -> unit.
LAYER_UNITS = {
    "systems.rhs_calls": "count",
    "systems.rhs_rows": "count",
    "systems.jac_calls": "count",
    "systems.rhs_s": "s",
    "integrators.scalar_steps": "count",
    "integrators.scalar_step_us": "us",
    "integrators.batched_steps": "count",
    "integrators.batched_step_us": "us",
    "integrators.newton_iters_per_step": "ratio",
    "engine.fine_sweep_s": "s",
    "engine.fine_sweep_rows": "count",
    "engine.correction_sweep_s": "s",
    "engine.correction_chunks": "count",
    "engine.fine_repeat_rows": "count",
    "engine.coarse_repeat_chunks": "count",
    "engine.coarse_guess_s": "s",
    "engine.reference_walk_s": "s",
    "engine.iteration_s": "s",
    "criteria.check_s": "s",
    "criteria.lipschitz_s": "s",
    "criteria.check_calls": "count",
    "metrics.w1_s": "s",
    "experiments.sweep_overhead_s": "s",
    "bounds.jacobian_propagate_s": "s",
    "bounds.spectral_norm_s": "s",
    "bounds.spectral_norm_calls": "count",
    "trace.overhead_s": "s",
}

# Self time of these spans, summed over the round.
_SELF_TIME = {
    "engine.fine_sweep_s": ("engine._fine_sweep_batched",),
    "engine.correction_sweep_s": ("engine._correction_sweep",),
    "engine.coarse_guess_s": ("engine.coarse_sweep",),
    "engine.reference_walk_s": REFERENCE_SPANS,
    "criteria.check_s": ("criteria.check",),
    "criteria.lipschitz_s": ("criteria.update_lipschitz",),
    "metrics.w1_s": ("metrics.trajectory_w1",),
    "experiments.sweep_overhead_s": ("experiments.run_sweep",),
    "bounds.jacobian_propagate_s": ("bounds.propagate_with_jacobian",),
    "bounds.spectral_norm_s": ("bounds.spectral_norm",),
}

# Count-valued layer metrics; these must repeat exactly between rounds.
COUNT_METRICS = ("systems.rhs_calls", "systems.rhs_rows", "systems.jac_calls",
                 "integrators.scalar_steps", "integrators.batched_steps",
                 "engine.fine_sweep_rows", "engine.correction_chunks",
                 "engine.fine_repeat_rows", "engine.coarse_repeat_chunks",
                 "criteria.check_calls", "bounds.spectral_norm_calls")


def _equal_rows(a: np.ndarray, b: np.ndarray) -> int:
    """Number of rows of ``a`` bitwise equal to the same row of ``b``."""
    a = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    b = np.ascontiguousarray(b, dtype=float).view(np.uint64)
    return int(np.count_nonzero(np.all(a == b, axis=-1)))


class Instrument:
    """Spans and counters of one round; a context manager that installs them."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNT_METRICS + ("implicit_steps",
                                                     "implicit_rhs_calls"), 0)
        self.leaf_s = {"rhs": 0.0, "scalar_step": 0.0, "batched_step": 0.0}
        self.reference_cache = None  # the last sweep reference walk, for checks
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # Chunk inputs of the previous iteration of the current solve.
        self._fine_inputs = None
        self._coarse_inputs = None

    # -- installation ----------------------------------------------------
    def _set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        self._set(engine, "parareal_solve",
                  self._span("engine.parareal_solve", engine.parareal_solve,
                             before=self._new_solve))
        self._set(engine, "fine_serial_reference",
                  self._span("engine.fine_serial_reference",
                             engine.fine_serial_reference))
        self._set(experiments, "_ReferenceCache", self._reference_cache_class())
        if self.trace:
            self._install_tracing()
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
        return False

    def _install_tracing(self):
        for owner, name in ((experiments, "run_sweep"), (experiments, "run_single"),
                            (metrics, "trajectory_w1"),
                            (criteria, "update_lipschitz"), (bounds, "beta_bound"),
                            (bounds, "propagate_with_jacobian")):
            self._set(owner, name, self._span(f"{owner.__name__.split('.')[-1]}.{name}",
                                              getattr(owner, name)))
        self._set(engine, "coarse_sweep",
                  self._span("engine.coarse_sweep", engine.coarse_sweep,
                             after=self._after_coarse_guess))
        self._set(engine, "_fine_sweep_batched",
                  self._span("engine._fine_sweep_batched",
                             engine._fine_sweep_batched,
                             before=self._before_fine_sweep))
        self._set(engine, "_correction_sweep",
                  self._span("engine._correction_sweep", engine._correction_sweep,
                             after=self._after_correction_sweep))
        self._set(criteria, "check",
                  self._span("criteria.check", criteria.check,
                             before=self._counter("criteria.check_calls")))
        self._set(bounds, "spectral_norm",
                  self._span("bounds.spectral_norm", bounds.spectral_norm,
                             before=self._counter("bounds.spectral_norm_calls")))
        self._set(integrators, "rk_step", self._step(integrators.rk_step))
        self._set(integrators, "rk_step_with_tangent",
                  self._step(integrators.rk_step_with_tangent))
        self._set(systems, "build_system", self._system_builder(systems.build_system))

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, key):
        def bump(args):
            self.counts[key] += 1
        return bump

    def _reference_cache_class(self):
        base = experiments._ReferenceCache

        def keep(args, result):
            self.reference_cache = args[0]

        init = self._span("experiments._ReferenceCache", base.__init__, after=keep)
        return type("TimedReferenceCache", (base,), {"__init__": init})

    def _new_solve(self, args):
        self._fine_inputs = None
        self._coarse_inputs = None

    def _after_coarse_guess(self, args, guess):
        self._coarse_inputs = np.array(guess.states[:-1])

    def _before_fine_sweep(self, args):
        rows = np.asarray(args[3])[:-1]
        self.counts["engine.fine_sweep_rows"] += rows.shape[0]
        if self._fine_inputs is not None:
            self.counts["engine.fine_repeat_rows"] += _equal_rows(rows, self._fine_inputs)
        self._fine_inputs = np.array(rows)

    def _after_correction_sweep(self, args, result):
        inputs = result[0][:-1]  # chunk n is coarse-propagated from U_{n-1}
        self.counts["engine.correction_chunks"] += inputs.shape[0]
        if self._coarse_inputs is not None:
            self.counts["engine.coarse_repeat_chunks"] += _equal_rows(inputs, self._coarse_inputs)
        self._coarse_inputs = np.array(inputs)

    def _step(self, fn):
        counts, leaf_s = self.counts, self.leaf_s

        def step(tableau, system, t, u, *rest):
            rhs_before = counts["systems.rhs_calls"]
            start = perf_counter()
            out = fn(tableau, system, t, u, *rest)
            elapsed = perf_counter() - start
            if np.ndim(u) == 1:
                counts["integrators.scalar_steps"] += 1
                leaf_s["scalar_step"] += elapsed
            else:
                counts["integrators.batched_steps"] += 1
                leaf_s["batched_step"] += elapsed
            if not tableau.is_explicit:
                counts["implicit_steps"] += 1
                counts["implicit_rhs_calls"] += counts["systems.rhs_calls"] - rhs_before
            return out

        return step

    def _system_builder(self, build):
        counts, leaf_s = self.counts, self.leaf_s

        def build_system(name, params=None):
            system = build(name, params)
            rhs, jac = system.rhs, system.jac

            def timed_rhs(t, u):
                start = perf_counter()
                out = rhs(t, u)
                leaf_s["rhs"] += perf_counter() - start
                counts["systems.rhs_calls"] += 1
                counts["systems.rhs_rows"] += u.size // u.shape[-1]
                return out

            def counted_jac(t, u):
                counts["systems.jac_calls"] += 1
                return jac(t, u)

            return dataclasses.replace(system, rhs=timed_rhs, jac=counted_jac)

        return build_system

    # -- results -----------------------------------------------------------
    def span_total(self, names) -> float:
        """Summed duration of the spans with these names."""
        return sum(end - start for _, _, name, start, end in self.spans
                   if name in names)

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def iteration_times(self) -> list:
        """Per-iteration wall time: from one fine sweep's start to the next,
        or to the end of the solve for the last iteration."""
        starts: dict = {}
        for _, parent, name, start, _ in self.spans:
            if name == "engine._fine_sweep_batched":
                starts.setdefault(parent, []).append(start)
        out = []
        for sid, _, name, _, end in self.spans:
            if name == "engine.parareal_solve" and sid in starts:
                marks = starts[sid] + [end]
                out.extend(b - a for a, b in zip(marks, marks[1:]))
        return out

    def counts_snapshot(self) -> dict:
        return {k: self.counts[k] for k in COUNT_METRICS}

    def timings(self) -> dict:
        """The time-valued layer metrics of this round (trace.overhead_s aside)."""
        c, leaf = self.counts, self.leaf_s
        scalar, batched = c["integrators.scalar_steps"], c["integrators.batched_steps"]
        selfs = self.self_times()
        out = {metric: sum(selfs.get(n, 0.0) for n in names)
               for metric, names in _SELF_TIME.items()}
        out["systems.rhs_s"] = leaf["rhs"]
        out["integrators.scalar_step_us"] = 1e6 * leaf["scalar_step"] / scalar if scalar else 0.0
        out["integrators.batched_step_us"] = (
            1e6 * leaf["batched_step"] / batched if batched else 0.0)
        out["integrators.newton_iters_per_step"] = (
            c["implicit_rhs_calls"] / c["implicit_steps"] if c["implicit_steps"] else 0.0)
        iters = self.iteration_times()
        out["engine.iteration_s"] = statistics.median(iters) if iters else 0.0
        return out
