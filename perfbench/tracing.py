"""Span recorder for the traced run, and the per-layer metrics derived from its spans.

The traced run calls ``coldstart.cli.main`` in-process, one call per stage,
while the public functions of each layer are replaced by wrappers that
record a span around every call. Nothing in the program changes: the
wrappers are installed on the module attributes the CLI looks up at call
time and removed afterwards. Spans stay in memory and are written once at
the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from coldstart import cli
from coldstart import dataset as ds
from coldstart import experiment as xp
from coldstart import kmeans as km
from coldstart import quality as ql
from coldstart import recsys_eval as rv

from workloads import Metric

# Per-layer metrics. `only` names the dataset a metric exists for; those are
# printed on that workload but left out of the result line, which carries
# the metrics every workload has.
LAYER_METRICS = (
    Metric("dataset.parse_s", "s", "lower", "dataset",
           "setup_s on every workload; pipeline_s and rerun_s mostly on movielens-sweep"),
    Metric("dataset.export_canonical_s", "s", "lower", "dataset", "setup_s on every workload"),
    Metric("dataset.ratings_per_s", "1/s", "higher", "dataset",
           "setup_s on every workload; pipeline_s and rerun_s mostly on movielens-sweep"),
    Metric("kmeans.fit_s", "s", "lower", "kmeans",
           "pipeline_s, mostly on jester-fit, by its share on movielens-sweep"),
    Metric("kmeans.lloyd_steps", "count", "lower", "kmeans",
           "nothing: an exact algorithm keeps this count"),
    Metric("kmeans.fit_s_per_step", "s", "lower", "kmeans", "pipeline_s on jester-fit"),
    Metric("kmeans.fit_1thread_s", "s", "lower", "kmeans", "pipeline_s on jester-fit"),
    Metric("kmeans.thread_speedup", "ratio", "higher", "kmeans",
           "pipeline_s on jester-fit; stays near 1 on movielens-sweep (no pool)"),
    Metric("kmeans.save_model_s", "s", "lower", "kmeans", "pipeline_s, by its share"),
    Metric("kmeans.load_model_s", "s", "lower", "kmeans", "rerun_s on every workload"),
    Metric("quality.davies_bouldin_s", "s", "lower", "quality",
           "negligible everywhere; tracked so that a regression shows"),
    Metric("experiment.success_curve_s", "s", "lower", "experiment",
           "rerun_s and pipeline_s, a small share on both workloads"),
    Metric("experiment.quality_curve_s", "s", "lower", "experiment",
           "rerun_s and pipeline_s, a small share on both workloads"),
    Metric("experiment.mincohort_curve_s", "s", "lower", "experiment",
           "rerun_s and pipeline_s on movielens-sweep", only="movielens"),
    Metric("experiment.prefix_rows", "count", "higher", "experiment",
           "nothing: fixed by the workload"),
    Metric("experiment.prefix_rows_per_s", "1/s", "higher", "experiment",
           "rerun_s and pipeline_s, a small share on both workloads"),
    Metric("experiment.breakpoint_segmented_linear_s", "s", "lower", "experiment",
           "rerun_s, negligible"),
    Metric("experiment.breakpoint_kneedle_s", "s", "lower", "experiment", "nothing (not run by the CLI)"),
    Metric("experiment.breakpoint_exp_tangent_s", "s", "lower", "experiment",
           "nothing (not run by the CLI)"),
    Metric("experiment.intersection_s", "s", "lower", "experiment", "rerun_s, negligible"),
    Metric("dataset.build_matrix_s", "s", "lower", "dataset",
           "setup_s, pipeline_s and rerun_s on movielens-sweep", only="movielens"),
    Metric("recsys_eval.sweep_s", "s", "lower", "recsys_eval",
           "pipeline_s on movielens-sweep", only="movielens"),
    Metric("recsys_eval.users_scored", "count", "higher", "recsys_eval",
           "nothing: fixed by the workload", only="movielens"),
    *(
        Metric(f"cli.{stage}{suffix}", "s", "lower", "cli",
               f"{'setup_s and ' if stage == 'ingest' else ''}pipeline_s"
               f"{' and rerun_s' if stage in ('curves', 'threshold') else ''}, "
               "largest share on movielens-sweep",
               only="movielens" if stage == "sweep" else None)
        for stage in ("ingest", "fit", "sweep", "curves", "threshold")
        for suffix in ("_s", "_glue_s")
    ),
)


class Tracer:
    """Records nested spans: id, parent, name, start, end, workload, seed, counts and errors."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        # span id -> (matrix, config, model) of each traced kmeans.fit call
        self.fit_calls: dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "seed": self.seed,
            **attrs,
        }
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as e:
            rec["error"] = type(e).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def _traced(self, real, name, annotate):
        @functools.wraps(real)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = real(*args, **kwargs)
                if annotate is not None:
                    annotate(rec, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def layers_traced(self):
        """Wrap every library call the CLI makes, for the duration of the block."""
        cohort = {}

        def ratings(rec, args, kwargs, result):
            rec["ratings"] = len(result) if isinstance(result, list) else result.n_ratings

        def steps(rec, args, kwargs, result):
            rec["lloyd_steps"] = sum(len(h) for h in result.step_sse)
            rec["threads"] = kwargs.get("threads", 1)
            self.fit_calls[rec["id"]] = (args[0], args[1], result)

        def split(rec, args, kwargs, result):
            cohort["users"] = result[1]

        def rows(rec, args, kwargs, result):
            users = np.asarray(args[2] if len(args) > 2 else kwargs["users"])
            rec["rows"] = len(users) * len(result.points)
            rec["min_cohort"] = bool(np.array_equal(users, cohort.get("users")))

        def method(rec, args, kwargs, result):
            rec["method"] = result.method

        def scored(rec, args, kwargs, result):
            rec["users_scored"] = args[0].n_users * len(result.rows)

        patches = [
            (ds, "parse_jester", "dataset.parse", ratings),
            (ds, "parse_movielens", "dataset.parse", ratings),
            (ds, "build_matrix", "dataset.build_matrix", ratings),
            (ds, "export_canonical_csv", "dataset.export_canonical", None),
            (km, "fit", "kmeans.fit", steps),
            (rv, "fit", "kmeans.fit", steps),
            (km, "save_model", "kmeans.save_model", None),
            (km, "load_model", "kmeans.load_model", None),
            (ql, "davies_bouldin", "quality.davies_bouldin", None),
            (rv, "sweep_coefficient", "recsys_eval.sweep", scored),
            (xp, "split_by_min_count", "experiment.split_by_min_count", split),
            (xp, "success_curve", "experiment.success_curve", rows),
            (xp, "quality_curve", "experiment.quality_curve", rows),
            (xp, "detect_breakpoint", "experiment.detect_breakpoint", method),
            (xp, "regression_intersection", "experiment.intersection", None),
        ]
        saved = []
        try:
            for module, attr, name, annotate in patches:
                real = getattr(module, attr)
                saved.append((module, attr, real))
                setattr(module, attr, self._traced(real, name, annotate))
            # The fit wrappers ask for per-step SSE so that Lloyd steps can be
            # counted; it is recorded either way and changes no other output.
            for module in (km, rv):
                setattr(module, "fit", _with_step_sse(getattr(module, "fit")))
            yield
        finally:
            for module, attr, real in reversed(saved):
                setattr(module, attr, real)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        rows = sorted(self.spans, key=lambda s: s["id"])
        for s in rows:
            s["self_s"] = selfs[s["id"]]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def _with_step_sse(traced_fit):
    @functools.wraps(traced_fit)
    def fit(m, cfg, *, threads=1, collect_step_sse=False):
        return traced_fit(m, cfg, threads=threads, collect_step_sse=True)

    return fit


def run_stage(tracer: Tracer, stage: str, argv: list[str]) -> int:
    with tracer.span(f"cli.{stage}"):
        return cli.main(argv)


def stage_fit(tracer: Tracer) -> dict:
    """The span of the kmeans.fit call made by the `fit` stage (not by the sweep)."""
    stage_ids = {s["id"] for s in tracer.spans if s["name"] == "cli.fit"}
    return next(s for s in tracer.spans if s["name"] == "kmeans.fit" and s["parent"] in stage_ids)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; repeated calls report their median."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def median(name, pick=lambda s: True):
        vals = [dur(s) for s in by_name[name] if pick(s)]
        return statistics.median(vals) if vals else None

    fits = by_name["kmeans.fit"]
    curves = by_name["experiment.success_curve"] + by_name["experiment.quality_curve"]

    out = {}
    out["dataset.parse_s"] = median("dataset.parse")
    out["dataset.export_canonical_s"] = median("dataset.export_canonical")
    build = median("dataset.build_matrix")
    n_ratings = by_name["dataset.parse"][0]["ratings"]
    out["dataset.ratings_per_s"] = n_ratings / (out["dataset.parse_s"] + (build or 0.0))
    out["kmeans.fit_s"] = sum(dur(s) for s in fits)
    out["kmeans.lloyd_steps"] = sum(s["lloyd_steps"] for s in fits)
    out["kmeans.fit_s_per_step"] = out["kmeans.fit_s"] / out["kmeans.lloyd_steps"]
    out["kmeans.fit_1thread_s"] = median("kmeans.fit_1thread")
    out["kmeans.thread_speedup"] = out["kmeans.fit_1thread_s"] / dur(stage_fit(tracer))
    out["kmeans.save_model_s"] = median("kmeans.save_model")
    out["kmeans.load_model_s"] = median("kmeans.load_model")
    out["quality.davies_bouldin_s"] = median("quality.davies_bouldin")
    out["experiment.success_curve_s"] = median(
        "experiment.success_curve", lambda s: not s["min_cohort"]
    )
    out["experiment.quality_curve_s"] = median("experiment.quality_curve")
    out["experiment.mincohort_curve_s"] = median(
        "experiment.success_curve", lambda s: s["min_cohort"]
    )
    out["experiment.prefix_rows"] = sum(s["rows"] for s in curves)
    out["experiment.prefix_rows_per_s"] = out["experiment.prefix_rows"] / sum(
        dur(s) for s in curves
    )
    for m in (xp.SEGMENTED_LINEAR, xp.KNEEDLE, xp.EXP_TANGENT):
        out[f"experiment.breakpoint_{m}_s"] = median(
            "experiment.detect_breakpoint", lambda s, m=m: s["method"] == m
        )
    out["experiment.intersection_s"] = median("experiment.intersection")
    out["dataset.build_matrix_s"] = build
    out["recsys_eval.sweep_s"] = median("recsys_eval.sweep")
    sweeps = by_name["recsys_eval.sweep"]
    out["recsys_eval.users_scored"] = sum(s["users_scored"] for s in sweeps) if sweeps else None
    for s in spans:
        if s["name"].startswith("cli."):
            out[f"{s['name']}_s"] = dur(s)
            out[f"{s['name']}_glue_s"] = selfs[s["id"]]
    return {k: v for k, v in out.items() if v is not None}
