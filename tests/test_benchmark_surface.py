"""The benchmark's use of the library, run on a small corpus.

``perfbench/`` fetches every function it wraps or calls by name, so a
library name it uses that is renamed or deleted fails here rather than in a
benchmark run. The benchmark's modules are imported as they are and not
edited.
"""

import dataclasses
import importlib
import time
from pathlib import Path

import pytest

from coldstart import cli
from coldstart import experiment as xp
from coldstart import kmeans as km
from test_cli import _write_jester, _write_movielens

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's checks, tracing and workloads modules, imported from ``perfbench/``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(importlib.import_module(name) for name in ("checks", "tracing", "workloads"))


def test_benchmark_checks_pass_on_a_traced_jester_pipeline(bench, tmp_path):
    checks, tracing, workloads = bench
    corpus = tmp_path / "jester.csv"
    _write_jester(corpus)
    # The jester-fit workload, with flags sized for a 30-user corpus.
    w = dataclasses.replace(
        workloads.WORKLOADS["jester-fit"],
        flags=("--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
               "--t-max", "80", "--seed", "0", "--threads", "2"),
    )
    out = tmp_path / "out"
    real_fit = km.fit
    tracer = tracing.Tracer(w.name, 0)
    with tracer.layers_traced():
        assert km.fit is not real_fit
        assert cli.main(w.argv("pipeline", corpus, out, None)) == cli.EXIT_OK
    assert km.fit is real_fit
    traced = {s["name"] for s in tracer.spans}
    assert {
        "dataset.parse", "dataset.export_canonical", "kmeans.fit", "kmeans.save_model",
        "quality.davies_bouldin", "experiment.success_curve", "experiment.quality_curve",
        "experiment.detect_breakpoint", "experiment.intersection",
    } <= traced, traced
    assert not any("error" in s for s in tracer.spans)

    log = checks.CheckLog()
    checks.check_outputs(log, w, out, checks.load_matrix(w, corpus))
    assert log.attempted > 0
    assert log.failed == 0, log.failures


def test_benchmark_checks_pass_on_a_traced_movielens_pipeline(bench, tmp_path, monkeypatch):
    checks, tracing, workloads = bench
    corpus = tmp_path / "ratings.dat"
    _write_movielens(corpus)
    # The movielens-sweep workload, with flags and coefficients sized for a
    # 40-user corpus whose users hold 5-12 ratings.
    w = dataclasses.replace(
        workloads.WORKLOADS["movielens-sweep"],
        flags=("--k-coeff", "10", "--min-ratings", "6", "--sample", "10",
               "--t-max", "12", "--seed", "0", "--threads", "2"),
        coeffs="10,20",
        config=(*workloads.WORKLOADS["movielens-sweep"].config, "eval_holdout = 3"),
    )
    config = tmp_path / "bench.config"
    config.write_text("\n".join(w.config) + "\n")
    out = tmp_path / "out"
    replays = []
    real_replay = xp.prefix_replay

    def timed_replay(*args, **kwargs):
        start = time.perf_counter()
        result = real_replay(*args, **kwargs)
        replays.append((start, time.perf_counter()))
        return result

    monkeypatch.setattr(xp, "prefix_replay", timed_replay)
    tracer = tracing.Tracer(w.name, 0)
    with tracer.layers_traced():
        rc = cli.main(w.argv("pipeline", corpus, out, config))
    assert checks.exit_ok("pipeline", rc, out), rc
    traced = {s["name"] for s in tracer.spans}
    assert {
        "dataset.parse", "dataset.build_matrix", "kmeans.fit", "recsys_eval.sweep",
        "experiment.split_by_min_count", "experiment.success_curve",
    } <= traced, traced
    assert not any("error" in s for s in tracer.spans)
    # Both sweep coefficients fit through the name the benchmark wraps in recsys_eval.
    sweeps = [s["id"] for s in tracer.spans if s["name"] == "recsys_eval.sweep"]
    assert sum(s["name"] == "kmeans.fit" and s["parent"] in sweeps for s in tracer.spans) == 2
    # Each curve's prefix replay runs inside that curve's span, so the spans time it.
    curves = [s for s in tracer.spans
              if s["name"] in ("experiment.success_curve", "experiment.quality_curve")]
    assert len(replays) == 3
    holders = [[s["id"] for s in curves if s["start"] <= start and end <= s["end"]]
               for start, end in replays]
    assert sorted(len(h) for h in holders) == [1, 1, 1], holders
    assert len({h[0] for h in holders}) == 3, holders

    log = checks.CheckLog()
    checks.check_outputs(log, w, out, checks.load_matrix(w, corpus))
    assert log.attempted > 0
    assert log.failed == 0, log.failures
