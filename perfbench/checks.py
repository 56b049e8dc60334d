"""Output checks and the results fingerprint for one pipeline output directory.

Each check is one attempted operation; a failed check counts into the
run's error rate. The checks read the artifacts the CLI wrote and recompute
what can be recomputed from the corpus with the library itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from coldstart import cli
from coldstart import dataset as ds
from coldstart import experiment as xp
from coldstart import kmeans as km

from workloads import Workload


class CheckLog:
    """Counts attempted and failed operations; remembers why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def exit_ok(stage: str, rc: int, out: Path) -> bool:
    """Exit 0, or exit 3 from `threshold` (alone or ending `pipeline`) when the curves do not cross.

    `threshold` exits 3 when the log fit of the prefix quality curve does not
    rise, which is a documented outcome rather than a fault; on
    movielens-shaped corpora some seeds give it. The benchmark refits the
    curve itself and accepts exit 3 only when that fit does not rise either.
    """
    if rc == 0:
        return True
    if rc != cli.EXIT_METHODOLOGY or stage not in ("pipeline", "threshold"):
        return False
    path = out / "quality.csv"
    if not path.exists():
        return False
    pts = xp.read_quality_csv(path).points
    slope, _ = np.polyfit(np.log([p.t for p in pts]), [p.current_quality_mean for p in pts], 1)
    return slope <= 0


def read_threshold(out: Path) -> dict[str, str]:
    path = out / "threshold.txt"
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def load_matrix(w: Workload, corpus: Path) -> ds.RatingMatrix:
    if w.dataset == "jester":
        return ds.parse_jester(corpus)
    return ds.build_matrix(ds.parse_movielens(corpus))


def digests(out: Path, names) -> dict[str, str]:
    """sha256 of each named artifact that exists."""
    return {
        n: hashlib.sha256((out / n).read_bytes()).hexdigest()
        for n in names
        if (out / n).exists()
    }


def combined_digest(d: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(d):
        h.update(f"{name}={d[name]}\n".encode())
    return h.hexdigest()


def read_summary(out: Path) -> dict:
    try:
        return json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def check_outputs(log: CheckLog, w: Workload, out: Path, m: ds.RatingMatrix) -> None:
    """Every artifact check for one finished pipeline directory."""
    for name in w.artifacts + ("summary.json",):
        log.check((out / name).exists(), f"{name} missing")
    for name in w.absent:
        log.check(not (out / name).exists(), f"{name} written but not expected")
    summary = read_summary(out)
    k_coeff = int(w.flags[w.flags.index("--k-coeff") + 1])

    log.check(
        summary.get("n_clusters") == math.ceil(m.n_users / k_coeff)
        and summary.get("n_users") == m.n_users,
        f"n_clusters {summary.get('n_clusters')} != ceil({m.n_users} / {k_coeff})",
    )

    if (out / "model.txt").exists():
        model = km.load_model(out / "model.txt", m)
        recomputed = km.sse(model, m)
        log.check(
            abs(recomputed - model.sse) <= 1e-9 * abs(model.sse),
            f"model.txt sse {model.sse!r} != recomputed {recomputed!r}",
        )

    for name in ("success.csv", "success_mincohort.csv"):
        if name in w.artifacts and (out / name).exists():
            _check_success(log, name, xp.read_success_csv(out / name))

    if (out / "quality.csv").exists():
        refs = {p.reference_quality_mean for p in xp.read_quality_csv(out / "quality.csv").points}
        log.check(len(refs) == 1, f"quality.csv reference column takes {len(refs)} values")

    if (out / "success.csv").exists():
        ts = [p.t for p in xp.read_success_csv(out / "success.csv").points]
        t_star = read_threshold(out).get("t_star")
        log.check(
            t_star is not None and ts[0] < int(t_star) < ts[-1],
            f"t_star {t_star} outside the search range ({ts[0]}, {ts[-1]})",
        )


def _check_success(log: CheckLog, name: str, curve: xp.SuccessCurve) -> None:
    pts = curve.points
    log.check(
        all(0.0 <= p.success_fraction <= 1.0 for p in pts),
        f"{name}: success fraction outside [0, 1]",
    )
    log.check(
        all(a.n_evaluated >= b.n_evaluated for a, b in zip(pts, pts[1:])),
        f"{name}: n_evaluated increases",
    )
    log.check(
        [p.t for p in pts] == list(range(1, len(pts) + 1)),
        f"{name}: t does not run 1, 2, ... without gaps",
    )


def check_identical(log: CheckLog, reference: dict[str, str], other: dict[str, str], what: str) -> None:
    """One check per artifact: `other` must match the reference bytes."""
    for name, digest in other.items():
        log.check(reference.get(name) == digest, f"{name} differs ({what})")


def check_against_stored(log: CheckLog, store: Path, current: dict[str, str]) -> None:
    """Compare with the digests an earlier run of the same workload, seed and source left."""
    if store.exists():
        check_identical(log, json.loads(store.read_text()), current, "versus an earlier run")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(current, indent=1, sort_keys=True))


def fingerprint(out: Path, w: Workload, lloyd_steps: int | None) -> dict:
    """Results that a faster program must reproduce exactly (t_cross null: no crossing)."""
    s = read_summary(out)
    t_star = read_threshold(out).get("t_star")
    fp = {
        "n_clusters": s.get("n_clusters"),
        "sse": s.get("sse"),
        "lloyd_steps": lloyd_steps,
        "t_star": None if t_star is None else int(t_star),
        "t_cross": s.get("intersection_t_cross"),
    }
    if w.coeffs:
        fp["sweep_best_by_ndcg"] = s.get("sweep_best_by_ndcg")
        fp["sweep_best_by_map"] = s.get("sweep_best_by_map")
    fp["artifacts_sha256"] = combined_digest(digests(out, w.artifacts))
    return fp
