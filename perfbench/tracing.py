"""Outside-in tracing of uwbrel's layers, installed from the benchmark.

Each traced public function is replaced, at every ``uwbrel`` module
attribute bound to it, by a wrapper that records a span
``[name, start, end, parent, raised]`` in memory.  Self time is a span's
duration minus the durations of its child spans.  A few wrappers also take
derived counts (optimizer evaluations, likelihood points, association
accuracy).  ``Tracer.installed()`` restores every patched attribute on exit.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import sys
from time import perf_counter

import numpy as np

from uwbrel.errors import UwbrelError

# "<defining module>.<function>"; the wrapper goes wherever uwbrel binds it,
# e.g. geom.complete_mpc is installed at chansim.complete_mpc as well.
TRACED = (
    "chansim.sample_scenario",
    "chansim.sample_excess_delays",
    "chansim.observe",
    "chansim.perturb_direction",
    "chansim.scramble_association",
    "geom.complete_mpc",
    "assoc.associate",
    "assoc.associate_by_sorting",
    "assoc.apply_assignment",
    "posest.lse_by_delta",
    "posest.lse_by_delta_pwa",
    "posest.lse_by_tau",
    "distest.mvue_async",
    "distest.mle_async_noassoc",
    "distest.loglik_no_assoc",
    "distest.permanent",
    "likelihood.maximize_2d",
    "evalcli.run_sweep",
)


class Tracer:
    """Spans and derived counters of one traced run, held in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, raised]
        self._open = []          # indices of the spans now running
        self.missing = []        # TRACED names uwbrel no longer defines
        self.patches = []        # (module, attribute, original)
        self.nfev = 0
        self.maximizations = 0
        self.grid_s = 0.0
        self.refine_s = 0.0
        self.refine_gain = 0.0
        self.points = 0
        self.pairs = 0
        self.pairs_correct = 0
        self._scrambled = None   # (scrambled list, perms) of the latest scramble

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, open_[-1] if open_ else -1, False]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except UwbrelError:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()

        return traced

    def _probe(self, name, fn):
        """Derived counters taken around the span wrapper ``fn``."""
        if name == "likelihood.maximize_2d":
            def maximize(objective, *args, **kwargs):
                grid = {}

                def counted(d, eps):
                    self.nfev += 1
                    if grid:
                        return objective(d, eps)
                    t0 = perf_counter()
                    vals = objective(d, eps)
                    grid["s"] = perf_counter() - t0
                    grid["best"] = float(np.max(np.where(np.isnan(vals), -np.inf, vals)))
                    return vals

                t0 = perf_counter()
                d_hat, eps_hat, value = fn(counted, *args, **kwargs)
                self.maximizations += 1
                self.grid_s += grid["s"]
                self.refine_s += perf_counter() - t0 - grid["s"]
                self.refine_gain += value - grid["best"]
                return d_hat, eps_hat, value
            return maximize
        if name == "distest.loglik_no_assoc":
            def loglik(tau_a_groups, tau_b_groups, model, d, eps):
                self.points += int(np.prod(np.broadcast_shapes(np.shape(d), np.shape(eps))))
                return fn(tau_a_groups, tau_b_groups, model, d, eps)
            return loglik
        if name == "chansim.scramble_association":
            def scramble(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._scrambled = out
                return out
            return scramble
        if name in ("assoc.associate", "assoc.associate_by_sorting"):
            def associate(obs_a, obs_b, *args, **kwargs):
                assignment = fn(obs_a, obs_b, *args, **kwargs)
                self._score(obs_a, assignment)
                return assignment
            return associate
        return fn

    def _score(self, obs_a, assignment):
        """Count pairs matched to their true partner.  Scrambled slot ``l``
        holds the B side of original index ``perms[o][l]``, so A index ``k``
        is right when it is matched to the slot whose perm entry is ``k``."""
        if self._scrambled is None or obs_a is not self._scrambled[0]:
            return
        perms = self._scrambled[1]
        for o, perm in assignment.permutation.items():
            for k, l in enumerate(perm):
                self.pairs += 1
                self.pairs_correct += int(l >= 0 and perms[o][l] == k)

    # --- install / restore -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "uwbrel" or n.startswith("uwbrel.")]
        try:
            for name in TRACED:
                module_name, func_name = name.split(".")
                original = getattr(importlib.import_module("uwbrel." + module_name),
                                   func_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._probe(name, self._span(name, original))
                sites = [(m, attr) for m in modules
                         for attr, value in vars(m).items() if value is original]
                for module, attr in sites:
                    setattr(module, attr, wrapper)
                    self.patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(self.patches):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every attribute patched by ``installed`` is the original again."""
        return all(getattr(module, attr) is original
                   for module, attr, original in self.patches)

    # --- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """``{name: [calls, busy_s, self_s, raised]}`` summed over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0, 0] for name in TRACED}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
            t[3] += int(raised)
        return totals

    def write_spans(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "parent", "name", "start_s", "end_s", "raised"])
            for i, (name, start, end, parent, raised) in enumerate(self.spans):
                w.writerow([i, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            int(raised)])
