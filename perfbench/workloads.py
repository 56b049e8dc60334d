"""Workload and metric tables shared by the timed run, the traced run and the self-test."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from corpus import JESTER_SEED, MOVIELENS_SEED

# Artifacts whose bytes must not depend on timing or thread count. The CLI
# also writes summary.json and resolved.config, which hold timings and paths.
DETERMINISTIC = (
    "canonical.csv",
    "model.txt",
    "sweep.csv",
    "success.csv",
    "success_mincohort.csv",
    "quality.csv",
    "threshold.txt",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    corpus_suffix: str
    default_seed: int
    flags: tuple[str, ...]
    coeffs: str | None = None
    config: tuple[str, ...] = ()
    corpus_users: int | None = None  # None: the acceptance corpus's user count

    @property
    def corpus_name(self) -> str:
        users = "" if self.corpus_users is None else f"-{self.corpus_users}u"
        return f"{self.dataset}{users}"

    @property
    def settings_digest(self) -> str:
        """Short hash of everything that decides the artifacts, besides corpus seed and source."""
        settings = [self.dataset, self.corpus_users, self.flags, self.coeffs, self.config]
        return hashlib.sha256(json.dumps(settings).encode()).hexdigest()[:12]

    @property
    def artifacts(self) -> tuple[str, ...]:
        """Deterministic artifacts this workload's pipeline must write."""
        skip = () if self.dataset == "movielens" else ("sweep.csv", "success_mincohort.csv")
        return tuple(a for a in DETERMINISTIC if a not in skip)

    @property
    def absent(self) -> tuple[str, ...]:
        return tuple(a for a in DETERMINISTIC if a not in self.artifacts)

    @property
    def stages(self) -> tuple[str, ...]:
        """The stages `pipeline` runs, in order."""
        return ("ingest", "fit", *(("sweep",) if self.coeffs else ()), "curves", "threshold")

    def argv(self, stage: str, corpus: Path, out: Path, config: Path | None) -> list[str]:
        """CLI arguments for one stage; every stage gets the same flags."""
        args = [stage, "--dataset", self.dataset, "--input", str(corpus), "--out", str(out)]
        if config is not None:
            args += ["--config", str(config)]
        args += list(self.flags)
        if self.coeffs and stage in ("pipeline", "sweep"):
            args += ["--coeffs", self.coeffs]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="jester-fit",
            why=(
                "dense-ish 12.5k x 100 grid, k = 250: kmeans.fit is the largest stage "
                "and the thread pool runs, so Lloyd or assignment changes show here"
            ),
            dataset="jester",
            corpus_suffix="csv",
            default_seed=JESTER_SEED,
            # Half the acceptance corpus's users (still above the 8,192-row
            # chunk, so the assignment pool runs) and half its k-coefficient,
            # so k stays 250. A pipeline then takes a few seconds, and a run
            # holds several of them to take the median of.
            corpus_users=12500,
            flags=("--k-coeff", "50", "--min-ratings", "36", "--sample", "100",
                   "--t-max", "100", "--seed", "7", "--threads", "2"),
            # Every restart repeats the same work from seed + r; two keep fit
            # the largest stage. Lloyd converges in 20-41 steps on these corpora,
            # depending on the seed; the cap below that makes every seed do
            # the same number of steps, so pipeline_s varies with the program
            # and not with the corpus.
            config=("kmeans_restarts = 2", "kmeans_max_steps = 15"),
        ),
        Workload(
            name="movielens-sweep",
            why=(
                "sparse 5k-user event log: the coefficient sweep dominates, the thread "
                "pool never engages, and only here run timestamp order and the min cohort"
            ),
            dataset="movielens",
            corpus_suffix="dat",
            default_seed=MOVIELENS_SEED,
            flags=("--k-coeff", "50", "--min-ratings", "21", "--sample", "100",
                   "--t-max", "40", "--seed", "7", "--threads", "2"),
            coeffs="25,50",
            # One restart, and as on jester-fit a cap below the 12-57 steps
            # that the fit and sweep restarts take to converge on these corpora.
            config=("kmeans_restarts = 1", "kmeans_max_steps = 10"),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    # Layer metrics: the end-to-end metric and workload it should move.
    # End-to-end metrics: what it measures.
    moves: str
    only: str | None = None  # dataset the metric exists for, None for every workload


END_TO_END = (
    Metric("pipeline_s", "s", "lower", "end-to-end",
           "wall time of one `pipeline` process, launch to exit"),
    Metric("setup_s", "s", "lower", "end-to-end",
           "median wall time of `ingest` into a fresh directory"),
    Metric("rerun_s", "s", "lower", "end-to-end",
           "`curves` then `threshold` re-run on the pipeline's directory"),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end",
           "largest max-RSS of any command in the run"),
)
# error_rate is printed beside these; the result line carries it as failed/attempted.
