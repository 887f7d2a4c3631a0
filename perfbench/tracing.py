"""Spans around the calls into each hawkes_mle layer, recorded from outside.

The tracer replaces public functions and ``LikelihoodProblem`` methods with
wrappers for the duration of a ``with tracer.installed():`` block and puts the
originals back on exit; no source file of the package changes.  Each span is
``[job, layer, name, parent, start, end, info]``, kept in memory and written
out once at the end of the run.  Calls are single-threaded, so a span's
descendants are exactly the spans recorded after it that start before it
ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

JOB, LAYER, NAME, PARENT, START, END, INFO = range(7)

# Evaluation kinds of the likelihood layer; "build" is construction.
EVAL_NAMES = ("objective", "grad_mu_alpha", "grad_beta", "grad_full", "objective_and_grad")


def _grad_kind(args, kwargs):
    # args = (problem, flat, mu_alpha, beta)
    mu_alpha = kwargs.get("mu_alpha", args[2] if len(args) > 2 else True)
    beta = kwargs.get("beta", args[3] if len(args) > 3 else True)
    if mu_alpha and beta:
        return "grad_full"
    return "grad_mu_alpha" if mu_alpha else "grad_beta"


def _optim_info(res):
    return {
        "iterations": len(res.trace),
        "accepted_aa": res.accepted_aa,
        "rejected_aa": res.rejected_aa,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, layer, name, fn, info=None):
        """``fn`` recorded as a span; ``name`` may be a callable of the args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [self.job, layer, label, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the package; restore the originals on exit."""
        from hawkes_mle import cli, experiments, io, likelihood, optim, simulate

        problem = likelihood.LikelihoodProblem
        runners = dict(cli._RUNNERS)
        patches = [
            (problem, "__init__", "likelihood", "build", None),
            (problem, "objective_flat", "likelihood", "objective", None),
            (problem, "grad_flat", "likelihood", _grad_kind, None),
            (problem, "objective_and_grad_flat", "likelihood", "objective_and_grad", None),
            (optim, "ipalm_map", "optim", "ipalm_map", None),
            (experiments, "run_aa_ipalm", "optim", "run_aa_ipalm", _optim_info),
            (experiments, "estimate_lipschitz_bounds", "optim", "lipschitz", None),
            (experiments, "generate_instance", "experiments", "generate_instance", None),
            (experiments, "fit_stream", "experiments", "fit_stream", None),
            (simulate, "simulate_cluster", "simulate", "cluster", len),
            (simulate, "simulate_thinning", "simulate", "thinning", len),
            (cli, "main", "cli", "fit", None),
        ]
        for mod in (io, cli):
            for attr, name in (("load_config", "config_load"), ("read_events", "read_events"),
                               ("write_params", "write_params"), ("write_trace", "write_trace")):
                patches.append((mod, attr, "io", name, None))
        patches.append((io, "write_events", "io", "write_events", None))
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, *_ in patches]
        try:
            for obj, attr, layer, name, info in patches:
                setattr(obj, attr, self.wrap(layer, name, getattr(obj, attr), info))
            for algo, fn in runners.items():
                cli._RUNNERS[algo] = self.wrap(
                    "optim", "run_" + algo.replace("-", "_"), fn, _optim_info
                )
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)
            cli._RUNNERS.update(runners)

    # -- reading the spans --------------------------------------------------

    def descendants(self, i):
        end = self.spans[i][END]
        j = i + 1
        while j < len(self.spans) and self.spans[j][START] < end:
            yield j
            j += 1

    def self_seconds(self, i):
        spans = self.spans
        child = sum(spans[j][END] - spans[j][START]
                    for j in self.descendants(i) if spans[j][PARENT] == i)
        return spans[i][END] - spans[i][START] - child

    def find(self, layer=None, name=None):
        return [i for i, s in enumerate(self.spans)
                if (layer is None or s[LAYER] == layer) and (name is None or s[NAME] == name)]

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["job", "layer", "name", "parent", "start", "end", "info"],
                       "spans": self.spans}, f)
            f.write("\n")
