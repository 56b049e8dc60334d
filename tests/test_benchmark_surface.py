"""The benchmark's use of the library, run on a small corpus.

``perfbench/`` fetches every function it wraps or calls by name, so a
library name it uses that is renamed or deleted fails here rather than in a
benchmark run. The benchmark's modules are imported as they are and not
edited.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from coldstart import cli
from coldstart import kmeans as km
from test_cli import _write_jester

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
