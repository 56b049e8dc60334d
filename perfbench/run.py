"""Benchmark of the coldstart CLI pipeline on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload jester-fit --seed 1 --seconds 60 --trace 0

``--trace 0`` times the CLI as separate ``python -m coldstart.cli`` processes,
one after another, and reports the end-to-end metrics. ``--trace 1`` runs the
same stages in-process with a span around every library call and reports the
per-layer metrics. Both check the outputs. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the benchmark writes goes under ``.perfbench/`` in the
repository root: cached corpora, output directories, logs and span files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from workloads import END_TO_END, WORKLOADS, Workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
ROUNDS = 3  # fewest rounds of pipeline, rerun and ingest in a timed run
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stop starting work well before


@dataclass
class Command:
    argv: list[str]
    rc: int
    wall_s: float
    maxrss_mb: float


class Runner:
    """Starts one CLI process at a time; kills it if the run's deadline passes."""

    def __init__(self, log, logs: Path, deadline: float) -> None:
        self.log = log
        self.logs = logs
        self.deadline = deadline
        self.commands: list[Command] = []

    def run(self, argv: list[str]) -> Command:
        from checks import exit_ok

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log_path = self.logs / f"{len(self.commands):02d}-{argv[0]}.log"
        with open(log_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "coldstart.cli", *argv],
                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
            exited = False
            lock = threading.Lock()

            def kill():
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), kill)
            timer.start()
            # Wait for the exit without reaping, so that the timer can never
            # signal a reused pid; then reap and take the child's rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Command(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0)
        self.commands.append(cmd)
        out_dir = Path(argv[argv.index("--out") + 1])
        self.log.check(
            exit_ok(argv[0], cmd.rc, out_dir), f"`{argv[0]}` exited {cmd.rc} (log: {log_path})"
        )
        return cmd


def ensure_corpus(w: Workload, seed: int) -> Path:
    """Generate the workload's corpus for this seed once; later runs reuse it.

    Generation runs in its own process: a child's max-RSS starts from the
    parent's RSS at spawn, so the benchmark process must stay small.
    """
    path = WORK / "corpus" / f"{w.corpus_name}-{seed}.{w.corpus_suffix}"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        users = [] if w.corpus_users is None else [str(w.corpus_users)]
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), w.dataset, str(seed), str(tmp), *users],
            check=True,
        )
        tmp.replace(path)
    return path


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "coldstart").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return res.stdout.strip() or None


def run_record(w: Workload, seed: int, summary: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    users, items, ratings = (summary.get(k) for k in ("n_users", "n_items", "n_ratings"))
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "corpus": {
            "users": users,
            "items": items,
            "ratings": ratings,
            "fill": ratings / (users * items) if users and items and ratings else None,
        },
        "k": summary.get("n_clusters"),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def write_config(w: Workload, run_dir: Path) -> Path | None:
    if not w.config:
        return None
    path = run_dir / "bench.config"
    path.write_text("\n".join(w.config) + "\n", encoding="utf-8")
    return path


def timed_run(w, seed, seconds, corpus, config, run_dir, log, runner):
    """Rounds of pipeline, rerun and ingest while `seconds` allows, at least ROUNDS.

    A round runs `pipeline` into a fresh directory, re-runs `curves` and
    `threshold` on it, and runs `ingest` into another fresh directory. When
    no whole round fits in the time left, rounds without the pipeline fill
    it. Every metric reports the median of its samples. Interleaving
    spreads the samples of each metric over the whole run, so that a slow
    spell on the machine moves one sample of each rather than every sample
    of one. Output directories are deleted after the last sample, so that
    file system work on them stays outside the measured stretch.
    """
    from checks import check_identical, digests

    start = time.monotonic()
    samples = {"pipeline_s": [], "setup_s": [], "rerun_s": []}
    first, out, done = None, None, []
    round_s = pair_s = 0.0  # duration of the last round with and without the pipeline
    while True:
        left = min(start + seconds, runner.deadline) - time.monotonic()
        rounds = len(samples["pipeline_s"])
        if rounds >= ROUNDS and left < pair_s:
            break
        t0 = time.monotonic()
        whole = rounds < ROUNDS or left >= round_s
        if whole:
            if out is not None:
                done.append(out)
            out = run_dir / f"pipeline{rounds}"
            samples["pipeline_s"].append(
                runner.run(w.argv("pipeline", corpus, out, config)).wall_s
            )
            got = digests(out, w.artifacts)
            if first is None:
                first = got
            else:
                check_identical(log, first, got, out.name)
        t1 = time.monotonic()
        i = len(samples["rerun_s"])
        samples["rerun_s"].append(sum(
            runner.run(w.argv(stage, corpus, out, config)).wall_s
            for stage in ("curves", "threshold")
        ))
        check_identical(log, first, digests(out, w.artifacts), f"after rerun {i}")
        ingest = run_dir / f"ingest{i}"
        samples["setup_s"].append(runner.run(w.argv("ingest", corpus, ingest, config)).wall_s)
        check_identical(log, first, digests(ingest, ["canonical.csv"]), ingest.name)
        done.append(ingest)
        now = time.monotonic()
        pair_s = now - t1
        if whole:
            round_s = now - t0

    for d in done:
        shutil.rmtree(d)
    samples["peak_rss_mb"] = [max(c.maxrss_mb for c in runner.commands)]
    return out, samples


def traced_run(w, seed, corpus, config, run_dir, log, runner):
    """One untraced pipeline for reference, then every stage in-process under the tracer."""
    import numpy as np

    import tracing
    from checks import check_identical, digests, exit_ok

    untraced = runner.run(w.argv("pipeline", corpus, run_dir / "untraced", config))
    out = run_dir / "traced"
    tracer = tracing.Tracer(w.name, seed)
    with open(run_dir / "traced-stages.log", "w") as stage_log, \
            redirect_stdout(stage_log), redirect_stderr(stage_log):
        with tracer.layers_traced():
            for stage in w.stages:
                rc = tracing.run_stage(tracer, stage, w.argv(stage, corpus, out, config))
                if not log.check(exit_ok(stage, rc, out), f"in-process `{stage}` returned {rc}"):
                    break

        # Outside the CLI: the 1-thread twin of the fit stage's fit, and the
        # two breakpoint methods the CLI's default configuration does not run.
        from coldstart import experiment as xp
        from coldstart import kmeans as km

        fit_span = tracing.stage_fit(tracer)
        m, kcfg, model = tracer.fit_calls[fit_span["id"]]
        with tracer.span("kmeans.fit_1thread"):
            one = km.fit(m, kcfg, threads=1, collect_step_sse=True)
        log.check(
            one.centroids.tobytes() == model.centroids.tobytes()
            and np.array_equal(one.assignments, model.assignments),
            "fit with 1 thread and with 2 threads differ",
        )
        success = xp.read_success_csv(out / "success.csv")
        for method in (xp.KNEEDLE, xp.EXP_TANGENT):
            with tracer.span("experiment.detect_breakpoint", method=method):
                xp.detect_breakpoint(success, method=method)

    spans_path = run_dir / "spans.json"
    tracer.write(spans_path)
    check_identical(
        log, digests(run_dir / "untraced", w.artifacts), digests(out, w.artifacts),
        "traced versus untraced",
    )
    return out, tracer, untraced, spans_path


def print_table(rows) -> None:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)).rstrip())


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_traced(tracer, untraced, spans_path) -> tuple[dict, int]:
    """Print the per-layer metrics and span self times; return the result metrics and Lloyd steps."""
    import tracing

    values = tracing.layer_metrics(tracer)
    metrics = {}
    rows = [("metric", "value", "unit", "layer", "should move")]
    for mt in tracing.LAYER_METRICS:
        if mt.name in values:
            rows.append((mt.name, fmt(values[mt.name]), mt.unit, mt.layer, mt.moves))
            if mt.only is None:
                metrics[mt.name] = {"value": values[mt.name], "unit": mt.unit}
    print("per-layer metrics (one traced run):")
    print_table(rows)

    selfs = tracer.self_times()
    agg = {}
    for s in tracer.spans:
        n, total, self_s = agg.get(s["name"], (0, 0.0, 0.0))
        agg[s["name"]] = (n + 1, total + s["end"] - s["start"], self_s + selfs[s["id"]])
    print(f"span self times ({len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}):")
    print_table([("span", "calls", "total_s", "self_s")] + [
        (name, n, f"{t:.4f}", f"{st:.4f}") for name, (n, t, st) in sorted(agg.items())
    ])
    traced_cli = sum(s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("cli."))
    print(
        f"tracing overhead: traced cli stages sum {traced_cli:.3f} s - untraced pipeline_s "
        f"{untraced.wall_s:.3f} s (n=1) = {traced_cli - untraced.wall_s:+.3f} s "
        "(in-process tracing minus process start-up)"
    )
    return metrics, values["kmeans.lloyd_steps"]


def report_timed(samples, log, runner) -> dict:
    """Print every end-to-end metric with unit and sample count; return the result metrics."""
    metrics = {}
    rows = [("metric", "median", "unit", "n", "samples")]
    for mt in END_TO_END:
        vals = samples[mt.name]
        med = statistics.median(vals)
        rows.append((mt.name, fmt(med), mt.unit, len(vals), " ".join(f"{v:.4f}" for v in vals)))
        metrics[mt.name] = {"value": med, "unit": mt.unit}
    rows.append(("error_rate", fmt(log.failed / log.attempted), "fraction", log.attempted,
                 f"{log.failed} failed of {log.attempted} commands and checks"))
    print("end-to-end metrics:")
    print_table(rows)
    print("commands: " + ", ".join(
        f"{c.argv[0]} {c.wall_s:.3f}s/{c.maxrss_mb:.0f}MB" for c in runner.commands
    ))
    return metrics


def measure(args, w: Workload, seed: int, log, started: float) -> dict:
    """One run of the workload; checks go into `log`, the result metrics are returned."""
    from checks import check_against_stored, check_outputs, digests, fingerprint
    from checks import load_matrix, read_summary

    corpus = ensure_corpus(w, seed)
    kind = "trace" if args.trace else "timed"
    run_dir = WORK / "runs" / f"{w.name}-seed{seed}-{kind}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    config = write_config(w, run_dir)
    runner = Runner(log, run_dir / "logs", started + RUN_LIMIT_S - 20.0)
    if args.trace:
        out, tracer, untraced, spans_path = traced_run(w, seed, corpus, config, run_dir, log, runner)
    else:
        out, samples = timed_run(w, seed, args.seconds, corpus, config, run_dir, log, runner)

    check_outputs(log, w, out, load_matrix(w, corpus))
    store = WORK / "digests" / f"{w.name}-seed{seed}-{w.settings_digest}-{source_digest()}.json"
    check_against_stored(log, store, digests(out, w.artifacts))

    print(f"== {w.name} seed={seed} ({kind} run): {w.why}")
    print("run record: " + json.dumps(run_record(w, seed, read_summary(out))))
    if args.trace:
        metrics, lloyd_steps = report_traced(tracer, untraced, spans_path)
    else:
        metrics, lloyd_steps = report_timed(samples, log, runner), None
    print("fingerprint: " + json.dumps(fingerprint(out, w, lloyd_steps)))
    # Its digest is kept; at 25 MB a run on Jester, the copies would fill the disk.
    for f in run_dir.rglob("canonical.csv"):
        f.unlink()
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="corpus seed (default: the acceptance-test seed of the dataset)")
    p.add_argument("--seconds", type=float, default=60.0,
                   help="measuring time of a timed run: rounds of pipeline, rerun and ingest "
                        f"while time is left (at least {ROUNDS}), then rerun and ingest")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "coldstart" / "cli.py").is_file():
        print(
            f"error: no src/coldstart/cli.py under {ROOT}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import CheckLog

    started = time.monotonic()
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    log = CheckLog()
    try:
        metrics = measure(args, w, seed, log, started)
    except Exception:
        # A program fault that broke the benchmark itself still yields a result line.
        traceback.print_exc()
        log.check(False, "the benchmark raised an exception (traceback on stderr)")
        metrics = {}
    for failure in log.failures:
        print(f"FAILED: {failure}")
    print(f"wall time of this run: {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
