"""Outside-in spans and counters around the public callables of each layer.

The program is not edited: `install` replaces module and class attributes
with wrappers at run time.  Every wrapped call appends one span
(name, start, end, parent span, operation id) to an in-memory list; the
list is written out once, when the operation ends.  Counts are taken from
the objects the wrapped functions return.

Layers are the modules of `src/timebin/`; a span's layer is the first
component of its name.  `hilbert`, `interferometer` and `config` only run
inside `emitter` and `detection` (or at set-up) and get no spans of their own.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "experiments", "emitter", "detection", "witness",
          "coincidence", "rng")

# per-function metric -> span name; every one is the span's self time
SELF_TIME_METRICS = {
    "emitter.trajectory_s": "emitter.run_sequence_trajectory",
    "emitter.exact_s": "emitter.run_sequence_exact",
    "detection.model_build_s": "detection.model_build",
    "detection.distribution_s": "detection.distribution",
    "detection.full_distribution_s": "detection.full_distribution",
    "detection.sample_run_s": "detection.sample_run",
    "detection.to_tags_s": "detection.to_tags",
    "experiments.witness_trajectory_self_s": "experiments.witness_trajectory",
    "experiments.witness_exact_self_s": "experiments.witness_exact",
    "experiments.simulate_hom_self_s": "experiments.simulate_hom",
    "coincidence.hom_counts_s": "coincidence.hom_counts_from_tags",
    "coincidence.g2_s": "coincidence.g2_zero",
    "coincidence.export_s": "coincidence.export_timetags",
    "coincidence.ingest_s": "coincidence.ingest_timetags",
    "coincidence.histogram_s": "coincidence.build_histogram",
    "witness.estimate_setting_s": "witness.estimate_setting",
    "cli.simulate_self_s": "cli.simulate",
    "cli.analyze_self_s": "cli.analyze",
    "rng.uniforms_s": "rng.uniforms",
}

COUNTERS = (
    "emitter.trajectory_calls",
    "emitter.distinct_states",
    "emitter.exact_components",
    "detection.catalog_size",
    "detection.distribution_calls",
    "detection.full_distribution_entries",
    "detection.tags_out",
    "experiments.heralded_events",
    "experiments.repetitions",
    "coincidence.export_bytes",
    "coincidence.ingest_tags",
    "coincidence.hom_coincidences",
    "rng.draws",
)


class Tracer:
    """Span and counter recorder for one operation (one fresh process)."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        name is a span name, or a callable that derives it from the call's
        arguments; count(counters, result, args, kwargs) records counts.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (span_name, start, end, parent, tracer.op_id)
            if count is not None:
                count(tracer.counters, result, args, kwargs)
            tracer.bookkeeping_s += (start - t_enter) + (time.perf_counter() - end)
            return result

        setattr(owner, attr, traced)

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op}
                for i, (n, s, e, p, op) in enumerate(self.spans)]

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child_time[sid]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this operation (times in seconds)."""
        selfs = self.self_times()
        root_s = sum(e - s for _n, s, e, p, _op in self.spans if p is None)
        out = {m: selfs.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
        for layer in LAYERS:
            layer_s = sum((v for k, v in selfs.items() if k.split(".")[0] == layer), 0.0)
            out[f"{layer}.self_s"] = layer_s
            out[f"{layer}.share"] = layer_s / root_s if root_s > 0 else 0.0
        out["trace.root_s"] = root_s
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        return out


def _cli_span(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli.analyze" if argv and argv[0] == "analyze" else "cli.simulate"


def _count_trajectory(c, result, _a, _k):
    c["emitter.trajectory_calls"] += 1
    c["emitter.distinct_states"] += len(result.state_table)


def _count_exact(c, result, _a, _k):
    c["emitter.exact_components"] += len(result.components)


def _count_distribution(c, _result, _a, _k):
    c["detection.distribution_calls"] += 1


def _count_full_distribution(c, result, _a, _k):
    c["detection.full_distribution_entries"] += len(result)


def _count_sample_run(c, result, _a, _k):
    c["detection.catalog_size"] += len(result.pattern_catalog)


def _count_tags(c, result, _a, _k):
    c["detection.tags_out"] += len(result)


def _count_witness_run(c, result, _a, _k):
    c["experiments.heralded_events"] += int(round(sum(result.outcome.n_heralded.values())))
    c["experiments.repetitions"] += result.n_repetitions


def _count_hom(c, result, _a, _k):
    c["coincidence.hom_coincidences"] += result.n1 + result.n2 + result.n3


def _count_export(c, _result, args, kwargs):
    c["coincidence.export_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_ingest(c, result, _a, _k):
    c["coincidence.ingest_tags"] += len(result)


def _count_draws(c, result, _a, _k):
    c["rng.draws"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer (call after importing timebin)."""
    from timebin import cli, coincidence, experiments, rng, witness
    from timebin.detection import DetectionModel, RunClicks

    w = tracer.wrap
    w(cli, "main", _cli_span)
    # experiments imports the two engines by name, so wrap them there
    w(experiments, "run_sequence_trajectory", "emitter.run_sequence_trajectory",
      _count_trajectory)
    w(experiments, "run_sequence_exact", "emitter.run_sequence_exact", _count_exact)
    w(experiments, "witness_trajectory", "experiments.witness_trajectory",
      _count_witness_run)
    w(experiments, "witness_exact", "experiments.witness_exact")
    w(experiments, "simulate_hom", "experiments.simulate_hom")
    w(DetectionModel, "__init__", "detection.model_build")
    w(DetectionModel, "sample_run", "detection.sample_run", _count_sample_run)
    w(DetectionModel, "full_distribution", "detection.full_distribution",
      _count_full_distribution)
    w(DetectionModel, "distribution", "detection.distribution", _count_distribution)
    w(RunClicks, "to_tags", "detection.to_tags", _count_tags)
    w(coincidence, "hom_counts_from_tags", "coincidence.hom_counts_from_tags",
      _count_hom)
    w(coincidence, "g2_zero", "coincidence.g2_zero")
    w(coincidence, "export_timetags", "coincidence.export_timetags", _count_export)
    w(coincidence, "ingest_timetags", "coincidence.ingest_timetags", _count_ingest)
    w(coincidence, "build_histogram", "coincidence.build_histogram")
    w(witness, "estimate_setting", "witness.estimate_setting")
    w(rng, "uniforms", "rng.uniforms", _count_draws)
