"""Spans around calls into densiflock's public functions, installed from outside.

Each target is wrapped at the name its caller looks up (a method on its
class, or a function in the calling module's namespace).  A wrapper records
one span [name, start, end, parent] per call into an in-memory list; the
per-layer figures are reduced from that list after the run.  A target the
package no longer has is recorded as absent instead of failing the run.
"""

import importlib
import time
from collections import defaultdict

import numpy as np


def _count_distances(tracer, args, _result):
    domain, a, b = args[0], np.atleast_2d(args[1]), np.atleast_2d(args[2])
    pairs = len(a) * len(b)
    tracer.counts["domains.distances.pairs"] += pairs
    if getattr(domain, "is_periodic", False):
        # The min-image path materialises an (len(a), len(b), d) float64 difference.
        tracer.counts["domains.distances.bytes"] += pairs * a.shape[1] * 8


def _count_simulate(tracer, _args, record):
    tracer.counts["integrate.steps"] += record.samples[-1].step
    tracer.counts["integrate.samples"] += len(record.samples)
    tracer.last_record = record


# (module, attribute path, span name, counter).  Several lookup names may
# share one span name when different callers reach the same function.
TARGETS = [
    ("densiflock.domains", "Domain.distances", "domains.distances", _count_distances),
    ("densiflock.domains", "Domain.wrap", "domains.wrap", None),
    ("densiflock.domains", "Domain.shortest_displacement", "domains.shortest_displacement", None),
    ("densiflock.integrate", "alignment_weight", "dynamics.alignment_weight", None),
    ("densiflock.integrate", "velocity_diameter", "dynamics.velocity_diameter", None),
    ("densiflock.integrate", "total_momentum", "dynamics.total_momentum", None),
    ("densiflock.integrate", "build_digraph", "graph.build_digraph", None),
    ("densiflock.cli", "build_digraph", "graph.build_digraph", None),
    ("densiflock.integrate", "strongly_connected_components",
     "graph.strongly_connected_components", None),
    ("densiflock.cli", "is_r_densely_packed", "graph.is_r_densely_packed", None),
    ("densiflock.cli", "fiedler_value", "graph.fiedler_value", None),
    ("densiflock.integrate", "simulate", "integrate.simulate", _count_simulate),
    ("densiflock.integrate", "initial_state", "scenarios.initial_state", None),
    ("densiflock", "initial_state", "scenarios.initial_state", None),
    ("densiflock", "parse_config", "config.parse_config", None),
    ("densiflock.cli", "cmd_run", "cli.cmd_run", None),
    ("densiflock.cli", "write_trajectory_csv", "cli.write_trajectory_csv", None),
    ("densiflock.cli", "write_diagnostics_csv", "cli.write_diagnostics_csv", None),
    ("densiflock.cli", "write_clusters_csv", "cli.write_clusters_csv", None),
    ("densiflock.cli", "write_plot_data", "cli.write_plot_data", None),
]


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a module; None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Install with `with Tracer() as t:`; the originals return on exit."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.last_record = None
        self._stack = []
        self._patched = []

    def __enter__(self):
        for module_name, path, name, counter in TARGETS:
            where = _resolve(module_name, path)
            if where is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            self._wrap(*where, name, counter)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, owner, attr, name, counter):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return out
