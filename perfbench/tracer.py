"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: `instrument` replaces each
public function listed in `TRACED` with a timing wrapper. The margnet
modules import each other's functions with `from .x import y`, so a caller
looks a function up in its *own* module namespace; patching only the
defining module would record nothing. `instrument` therefore rebinds every
name, in every loaded `margnet` module, that refers to a traced function.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

# (layer, defining module, attribute path) of every call the traced run times.
TRACED = [
    ("generator", "margnet.generator", "loss_and_grad"),
    ("generator", "margnet.generator", "adam_step"),
    ("generator", "margnet.generator", "forward"),
    ("generator", "margnet.generator", "soft_marginal"),
    ("generator", "margnet.generator", "sample_hard"),
    ("generator", "margnet.generator", "save_checkpoint"),
    ("generator", "margnet.generator", "load_checkpoint"),
    ("synthesis", "margnet.synthesis", "train"),
    ("synthesis", "margnet.synthesis", "warmup"),
    ("synthesis", "margnet.synthesis", "candidate_scores"),
    ("synthesis", "margnet.synthesis", "run_margnet"),
    ("domain", "margnet.domain", "load_csv"),
    ("domain", "margnet.domain", "encode"),
    ("domain", "margnet.domain", "decode"),
    ("domain", "margnet.domain", "write_csv"),
    ("marginals", "margnet.marginals", "compute_marginal"),
    ("marginals", "margnet.marginals", "fidelity_error"),
    ("marginals", "margnet.marginals", "query_error"),
    ("evaluation", "margnet.evaluation", "evaluate"),
    ("bounds", "margnet.bounds", "selected_lower_bound"),
    ("bounds", "margnet.bounds", "selected_upper_bound"),
    ("bounds", "margnet.bounds", "unselected_bound"),
    ("privacy", "margnet.privacy", "dp_to_zcdp_rho"),
    ("privacy", "margnet.privacy", "Accountant.spend"),
    ("privacy", "margnet.privacy", "exponential_mechanism"),
    ("privacy", "margnet.privacy", "gaussian_mechanism"),
]


class SpanRecorder:
    """Keeps spans in memory as [name, start, end, parent index] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid][1] = start
            self.spans[sid][2] = end

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_time_by_root(self) -> dict[str, float]:
        """Sum of self times under each root span, keyed by the root's name.

        By construction this equals the root span's duration, so it shows
        that the wrapped calls account for the whole of a command."""
        roots: list[int] = []
        totals: dict[str, float] = {}
        for i, ((_, _, _, parent), own) in enumerate(zip(self.spans, self.self_times())):
            roots.append(i if parent < 0 else roots[parent])
            root_name = self.spans[roots[i]][0]
            totals[root_name] = totals.get(root_name, 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)


def instrument(recorder: SpanRecorder) -> None:
    """Rebind every traced function, wherever a margnet module looks it up.

    Call after `margnet.cli` is imported, so all margnet modules are loaded.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "margnet" or name.startswith("margnet."))]
    for layer, module_name, path in TRACED:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, recorder.wrap(f"{layer}.{attr}", getattr(cls, attr)))
            continue
        fn = getattr(owner, path)
        wrapper = recorder.wrap(f"{layer}.{path}", fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)


def summarize(recorder: SpanRecorder) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, per-call ms p50/p99."""
    own = recorder.self_times()
    by_name: dict[str, tuple[list, list]] = {}
    for (name, start, end, _), self_s in zip(recorder.spans, own):
        durs, selfs = by_name.setdefault(name, ([], []))
        durs.append(end - start)
        selfs.append(self_s)
    out = {}
    for name, (durs, selfs) in by_name.items():
        ms = np.asarray(durs) * 1e3
        out[name] = {
            "calls": len(durs),
            "s": float(np.sum(durs)),
            "self_s": float(np.sum(selfs)),
            "ms_p50": float(np.percentile(ms, 50)),
            "ms_p99": float(np.percentile(ms, 99)),
        }
    return out
