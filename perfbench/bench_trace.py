"""Span tracing for the benchmark's traced run.

The traced run replaces module-level names with timing wrappers in the
module where the caller looks them up (for example `bowl.gibbs.build_suffstats`,
which `_run_single_chain` resolves on every sweep), and puts the originals
back when the pass ends. No file under `src/` is touched. Spans stay in
memory and are written to a CSV file when the run ends; each layer's self
time is derived from them: a span's duration minus the durations of its
direct children. The code runs single-threaded in the traced run
(`--jobs 1`), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module where the caller looks the name up, attribute, span name).
# A function looked up in two modules gets one span name.
WRAPPED = (
    ("bowl.cli", "cmd_fit", "cli.cmd_fit"),
    ("bowl.cli", "cmd_predict", "cli.cmd_predict"),
    ("bowl.cli", "cmd_reproduce", "cli.cmd_reproduce"),
    ("bowl.cli", "load_dataset_csv", "pseudo_model.load_dataset_csv"),
    ("bowl.cli", "run_chain", "gibbs.run_chain"),
    ("bowl.simulate", "run_chain", "gibbs.run_chain"),
    ("bowl.gibbs", "build_suffstats", "gibbs.build_suffstats"),
    ("bowl.gibbs", "draw_lambda", "gibbs.draw_lambda"),
    ("bowl.gibbs", "draw_beta_normal", "gibbs.draw_beta_normal"),
    ("bowl.gibbs", "draw_beta_ep", "gibbs.draw_beta_ep"),
    ("bowl.gibbs", "draw_omega", "gibbs.draw_omega"),
    ("bowl.gibbs", "draw_gamma_and_beta_ss", "gibbs.draw_gamma_and_beta_ss"),
    ("bowl.gibbs", "MvnParams", "distributions.MvnParams"),
    ("bowl.gibbs", "sample_mvn", "distributions.sample_mvn"),
    ("bowl.cli", "effective_sample_size", "diagnostics.effective_sample_size"),
    ("bowl.cli", "split_rhat", "diagnostics.split_rhat"),
    ("bowl.cli", "recommend", "prediction.recommend"),
    ("bowl.prediction", "recommend", "prediction.recommend"),
    ("bowl.cli", "certainty_grid", "prediction.certainty_grid"),
    ("bowl.prediction", "certainty_grid", "prediction.certainty_grid"),
    ("bowl.cli", "coefficient_magnitudes", "prediction.coefficient_magnitudes"),
    ("bowl.prediction", "coefficient_magnitudes", "prediction.coefficient_magnitudes"),
    ("bowl.cli", "run_experiment", "simulate.run_experiment"),
    ("bowl.cli", "uncertainty_study", "simulate.uncertainty_study"),
    ("bowl.simulate", "generate_scenario_raw", "simulate.generate_scenario_raw"),
    ("bowl.simulate", "classify_with_method", "simulate.classify_with_method"),
    ("bowl.simulate", "fit_owl_linear", "owl.fit_owl_linear"),
)

# Time spent computing counters gets its own span, so that it lands in the
# tracing overhead and not in the self time of the caller.
COUNTER_SPAN = "trace.counters"
SWEEP_KERNELS = ("gibbs.draw_beta_normal", "gibbs.draw_beta_ep", "gibbs.draw_gamma_and_beta_ss")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_chi_degenerate(counts, args, kwargs, result):
    from bowl.distributions import CHI_DEGENERATE
    from bowl.pseudo_model import owl_weights

    beta = np.asarray(_arg(args, kwargs, 0, "beta"), dtype=float)
    data = _arg(args, kwargs, 1, "data")
    chi = (owl_weights(data) * (1.0 - data.actions * (data.features @ beta))) ** 2
    counts["distributions.chi_degenerate"] += int(np.count_nonzero(chi < CHI_DEGENERATE))


def _count_omega_zero_beta(counts, args, kwargs, result):
    from bowl.gibbs import BETA_ZERO_TOL

    beta = np.asarray(_arg(args, kwargs, 0, "beta"), dtype=float)
    counts["gibbs.omega_zero_beta"] += int(np.count_nonzero(np.abs(beta) < BETA_ZERO_TOL))


def _count_ss_flips(counts, args, kwargs, result):
    before = np.asarray(_arg(args, kwargs, 0, "state").gamma)
    after = np.asarray(result[0])
    counts["gibbs.ss_flips"] += int(np.count_nonzero(before != after))
    counts["gibbs.ss_active"] += int(np.count_nonzero(after))


COUNTERS = {
    "gibbs.draw_lambda": _count_chi_degenerate,
    "gibbs.draw_omega": _count_omega_zero_beta,
    "gibbs.draw_gamma_and_beta_ss": _count_ss_flips,
}


class Tracer:
    """In-memory span recorder for one workload's traced passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.parent: list[int] = []
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counts = dict.fromkeys(("gibbs.sweeps", "gibbs.ss_flips", "gibbs.ss_active",
                                     "gibbs.omega_zero_beta", "distributions.chi_degenerate"), 0)
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_idx)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, span_name: str):
        idx = self._intern(span_name)
        counter_idx = self._intern(COUNTER_SPAN)
        counter = COUNTERS.get(span_name)
        is_sweep = span_name in SWEEP_KERNELS
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None or is_sweep:
                cid = self._open(counter_idx)
                try:
                    if is_sweep:
                        counts["gibbs.sweeps"] += 1
                    if counter is not None:
                        counter(counts, args, kwargs, result)
                finally:
                    self._close(cid)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)) * 1e-9
        return parent, name, dur

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds), derived from the spans."""
        parent, name, dur = self.arrays()
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=self_t, minlength=len(self.names))
        return {nm: (int(calls[i]), float(total[i])) for i, nm in enumerate(self.names)}

    def root_seconds(self) -> float:
        parent, _, dur = self.arrays()
        return float(dur[parent < 0].sum())

    def rows(self, offset: int, t0: int):
        """CSV rows of the spans, ids shifted by `offset` and times relative to `t0`."""
        root = list(range(len(self.parent)))
        for sid, par in enumerate(self.parent):
            if par >= 0:
                root[sid] = root[par]
        for sid, (par, nm, s, e) in enumerate(zip(self.parent, self.name, self.start, self.end)):
            parent = par + offset if par >= 0 else -1
            yield (f"{sid + offset},{parent},{root[sid] + offset},{self.names[nm]},"
                   f"{self.workload},{s - t0},{e - t0}\n")


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every tracer's spans to one CSV file, with ids unique across tracers."""
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    t0 = min((t.start[0] for t in tracers if t.start), default=0)
    with open(path, "w") as fh:
        fh.write("span,parent,root,name,workload,start_ns,end_ns\n")
        for tracer in tracers:
            fh.writelines(tracer.rows(offset, t0))
            offset += len(tracer.start)
