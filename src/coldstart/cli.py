"""Command-line pipeline: ingest -> fit -> sweep -> curves -> threshold.

A command runs exactly the stages it names: one, or all of them for
``pipeline``. Before it creates the output directory it checks its inputs,
the files an earlier stage must have left there among them
(``_PREREQUISITES``). Every stage but ``threshold`` gets the rating matrix
from ``matrix.bin`` in the output directory when that file's key
(``_input_key``) matches ``--input``, and otherwise parses the input and
leaves ``matrix.bin`` for the next. ``fit`` leaves ``model.txt`` and the
users' labels under it as ``labels.bin`` (``kmeans.labels_key``); ``curves``
reassigns the users when those labels do not match. Each command writes its
resolved ``key = value`` config next to its outputs, so any artifact can be
regenerated from the directory alone.

Exit codes: 0 success (quality curves that do not cross are a result), 2
usage or input error (an unreadable ``--input``, a missing or malformed file
an earlier stage leaves, or an ``--out`` that cannot be made a directory
among them), 3 methodology error (degenerate model), 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import experiment as xp
from . import kmeans as km
from . import quality as ql
from . import recsys_eval as rv
from .errors import MethodologyError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_METHODOLOGY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad flags, config values, or unreadable inputs; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "movielens"
    input: str | None = None
    k_coeff: int = 50
    min_ratings: int = 50
    sample: int = 100
    seed: int = 0
    ordering: str = "auto"
    t_max: int = 100
    out: str = "coldstart_out"
    threads: int = 1
    coeffs: tuple[int, ...] = ()
    breakpoint_method: str = xp.SEGMENTED_LINEAR
    kmeans_restarts: int = 10
    kmeans_max_steps: int = 100
    kmeans_conv_tol: float = 1e-6
    eval_holdout: int = 10
    eval_pool: int = 100
    eval_relevance_threshold: float = 4.0
    eval_ndcg_cutoff: int = 10

    def __post_init__(self):
        if self.dataset not in ("movielens", "jester"):
            raise UsageError(f"dataset must be movielens or jester, not {self.dataset!r}")
        if self.ordering not in ("auto", "by_timestamp", "by_item_index"):
            raise UsageError(f"unknown ordering {self.ordering!r}")
        for key in ("k_coeff", "min_ratings", "sample", "t_max"):
            if getattr(self, key) < 1:
                raise UsageError(f"{key} must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if any(c < 1 for c in self.coeffs):
            raise UsageError("coeffs: every coefficient must be >= 1")
        if self.threads < 0:
            raise UsageError("threads must be >= 0 (0 = auto)")
        if self.breakpoint_method not in (xp.SEGMENTED_LINEAR, xp.KNEEDLE, xp.EXP_TANGENT):
            raise UsageError(f"unknown breakpoint method {self.breakpoint_method!r}")
        # Each key is checked alone by its library config, so the error can name it.
        bases = ((km.KMeansConfig(n_clusters=1), _KMEANS_KEYS), (rv.EvalConfig(), _EVAL_KEYS))
        for base, keys in bases:
            for key, field in keys.items():
                try:
                    dataclasses.replace(base, **{field: getattr(self, key)})
                except ValueError as e:
                    raise UsageError(f"{key}: {e}") from None

    def resolved_ordering(self) -> ds.PrefixOrdering:
        if self.ordering == "by_timestamp":
            return ds.BY_TIMESTAMP
        if self.ordering == "by_item_index":
            return ds.BY_ITEM_INDEX
        return ds.BY_TIMESTAMP if self.dataset == "movielens" else ds.BY_ITEM_INDEX

    def resolved_threads(self) -> int:
        return self.threads or os.cpu_count() or 1

    def kmeans_template(self) -> km.KMeansConfig:
        return km.KMeansConfig(n_clusters=1, seed=self.seed, **self._fields(_KMEANS_KEYS))

    def eval_config(self) -> rv.EvalConfig:
        return rv.EvalConfig(seed=self.seed, **self._fields(_EVAL_KEYS))

    def _fields(self, keys: dict[str, str]) -> dict:
        return {field: getattr(self, key) for key, field in keys.items()}


# RunConfig fields that set a KMeansConfig / EvalConfig field, and the field they set.
_KMEANS_KEYS = {
    "kmeans_restarts": "restarts",
    "kmeans_max_steps": "max_steps",
    "kmeans_conv_tol": "conv_tol",
}
_EVAL_KEYS = {
    "eval_holdout": "holdout_per_user",
    "eval_pool": "candidate_pool",
    "eval_relevance_threshold": "relevance_threshold",
    "eval_ndcg_cutoff": "ndcg_cutoff",
}


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"coeffs must be a comma-separated integer list, not {text!r}")


def _from_text(field: dataclasses.Field, text: str):
    """A config value as its key's type: that of the field's default, `str` for `input`."""
    if field.name == "coeffs":
        return _parse_coeffs(text)
    return text if field.default is None else type(field.default)(text)


def parse_config_file(path: str | Path) -> dict:
    """Flat `key = value` lines; blank lines and # comments skipped."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in fields:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            values[key] = _from_text(fields[key], val)
        except ValueError:
            raise UsageError(f"{path}:{ln}: bad value for {key}: {val!r}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults <- config file <- explicit flags, in increasing precedence."""
    merged = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            merged[field.name] = _parse_coeffs(flag) if field.name == "coeffs" else flag
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e))


def write_resolved_config(cfg: RunConfig, out: Path) -> None:
    lines = []
    for key in sorted(f.name for f in dataclasses.fields(cfg)):
        value = getattr(cfg, key)
        if key == "coeffs":
            value = ",".join(str(c) for c in value) or None
        if value is not None:
            lines.append(f"{key} = {value}")
    (out / "resolved.config").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _update_summary(out: Path, fragment: dict) -> None:
    """Merge a stage's numbers into summary.json atomically, rebuilding one without a JSON object."""
    path, tmp = out / "summary.json", out / "summary.json.tmp"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(summary, dict):
            raise ValueError(f"it holds a JSON {type(summary).__name__}, not an object")
    except FileNotFoundError:
        summary = {}
    except ValueError as e:  # not UTF-8, not JSON, or not an object
        warnings.warn(f"rebuilding unreadable summary file {path}: {e}", stacklevel=2)
        summary = {}
    try:
        tmp.write_text(json.dumps({**summary, **fragment}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# The parsed matrix a stage leaves in --out for later stages (ds.write_matrix).
MATRIX_FILE = "matrix.bin"
# The labels `fit` leaves in --out for `curves` (km.save_labels).
LABELS_FILE = "labels.bin"


def _input_key(dataset: str, path: Path) -> str:
    """sha256 of the handoff format tag, the dataset name and the raw input's bytes."""
    h = hashlib.sha256(f"{ds.MATRIX_FORMAT} {dataset}\n".encode())
    # One reused buffer: allocating a chunk per read raised a later k-means fit's peak RSS.
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def _load_matrix(cfg: RunConfig) -> tuple[ds.RatingMatrix, dict]:
    """The input matrix, and the summary keys naming the input, its size and where it came from.

    The matrix a stage left in --out is read when its key matches the
    input's; otherwise, or when there is none, the input is parsed.
    """
    if not cfg.input:
        raise UsageError("--input is required for this command")
    path = Path(cfg.input)
    try:
        key = _input_key(cfg.dataset, path)
    except OSError as e:
        raise UsageError(f"cannot read input {path}: {e.strerror or e}") from None
    m = ds.read_matrix(Path(cfg.out) / MATRIX_FILE, key)
    source = "parsed" if m is None else "handoff"
    if m is None and cfg.dataset == "jester":
        m = ds.parse_jester(path)
    elif m is None:
        m = ds.build_matrix(ds.parse_movielens(path))
    return m, {
        "dataset": cfg.dataset,
        "n_users": m.n_users,
        "n_items": m.n_items,
        "n_ratings": m.n_ratings,
        "input_sha256": key,
        "matrix_source": source,
    }


def _sample_curve_users(cfg: RunConfig, m: ds.RatingMatrix) -> np.ndarray:
    """The seeded sample of users with at least ``min_ratings`` ratings; a usage error when there are none."""
    eligible = np.flatnonzero(m.row_lengths() >= cfg.min_ratings)
    if len(eligible) == 0:
        raise UsageError(f"no users with >= {cfg.min_ratings} ratings to sample from")
    n = cfg.sample
    if n > len(eligible):
        print(
            f"warning: sample {n} exceeds the {len(eligible)} eligible users; "
            "using all of them",
            file=sys.stderr,
        )
        n = len(eligible)
    return np.asarray(ds.sample_users(m, n, cfg.seed, among=eligible))


def _ingest(cfg: RunConfig, m: ds.RatingMatrix, out: Path, input_key: str) -> dict:
    ds.export_canonical_csv(m, out / "canonical.csv")
    print(f"ingest: {m.n_users} users, {m.n_items} items, {m.n_ratings} ratings")
    return {}


def _fit(cfg: RunConfig, m: ds.RatingMatrix, out: Path, input_key: str) -> dict:
    if cfg.k_coeff > m.n_users:
        print(
            f"warning: k_coeff {cfg.k_coeff} exceeds the user count {m.n_users}; "
            "cluster count clamps to 1",
            file=sys.stderr,
        )
    k = km.n_clusters_from_coeff(m.n_users, cfg.k_coeff)
    kcfg = dataclasses.replace(cfg.kmeans_template(), n_clusters=k)
    model = km.fit(m, kcfg, threads=cfg.resolved_threads())
    km.save_model(model, out / "model.txt")
    km.save_labels(model, out / LABELS_FILE, input_key)
    db_signed = None
    if k >= 2:
        try:
            db_signed = ql.davies_bouldin(model, m).db_signed
        except MethodologyError as e:
            print(f"warning: cluster quality unavailable: {e}", file=sys.stderr)
    db_text = "n/a" if db_signed is None else repr(db_signed)
    print(f"fit: n_clusters={k} sse={model.sse!r} db_signed={db_text}")
    fingerprint = hashlib.sha256((repr(kcfg) + input_key).encode()).hexdigest()[:16]
    return {
        "n_clusters": k,
        "sse": model.sse,
        "db_signed": db_signed,
        "kmeans_kernel": model.kernel,
        "kmeans_fill_ratio": km.fill_ratio(m),
        "kmeans_blas_thread_cap": km.blas_thread_cap_found(),
        "kmeans_restarts": [r._asdict() for r in model.restarts],
        "kmeans_config_fingerprint": fingerprint,
        "numpy_version": np.__version__,
    }


def _sweep_floor(cfg: RunConfig) -> int:
    """The fewest ratings a sweep user may have: the run's floor, and one more than the holdout."""
    return max(cfg.min_ratings, cfg.eval_holdout + 1)


def _sweep(cfg: RunConfig, m: ds.RatingMatrix, out: Path, input_key: str) -> dict:
    result = rv.sweep_coefficient(
        ds.filter_min_ratings(m, _sweep_floor(cfg)),
        cfg.coeffs,
        cfg.kmeans_template(),
        cfg.eval_config(),
        threads=cfg.resolved_threads(),
    )
    rv.write_sweep_csv(result, out / "sweep.csv")
    for row in result.rows:
        map_text = "n/a" if np.isnan(row.map_mean) else f"{row.map_mean:.6f}"
        print(
            f"sweep: k_coeff={row.k_coeff} n_clusters={row.n_clusters} "
            f"ndcg={row.ndcg_mean:.6f} map={map_text}"
        )
    best_map = "n/a" if result.best_by_map is None else result.best_by_map
    print(f"sweep: best_by_ndcg={result.best_by_ndcg} best_by_map={best_map}")
    return {
        "sweep_best_by_ndcg": result.best_by_ndcg,
        "sweep_best_by_map": result.best_by_map,
    }


def _curves(
    cfg: RunConfig, m: ds.RatingMatrix, out: Path, input_key: str, *, users: np.ndarray
) -> dict:
    # `users` is the seeded sample `_run` drew and checked before any stage ran.
    model = km.load_model(out / "model.txt", m, labels=(out / LABELS_FILE, input_key))
    ordering = cfg.resolved_ordering()

    success = xp.success_curve(model, m, users, cfg.t_max, ordering)
    xp.write_success_csv(success, out / "success.csv")
    quality_c = xp.quality_curve(model, m, users, cfg.t_max, ordering)
    xp.write_quality_csv(quality_c, out / "quality.csv")

    fragment = {"curve_users": len(users)}
    if cfg.dataset == "movielens":
        min_count, min_cohort = xp.split_by_min_count(m)
        cohort_curve = xp.success_curve(model, m, min_cohort, cfg.t_max, ordering)
        xp.write_success_csv(cohort_curve, out / "success_mincohort.csv")
        fragment["min_cohort_count"] = len(min_cohort)
        fragment["min_cohort_ratings"] = min_count
    print(
        f"curves: success over {len(success.points)} prefix lengths, "
        f"{len(users)} users evaluated"
    )
    return fragment


def _threshold(cfg: RunConfig, m: ds.RatingMatrix | None, out: Path, input_key: str | None) -> dict:
    # Reads only the curve CSVs; `m` and `input_key` are None when it runs alone.
    success = xp.read_success_csv(out / "success.csv")
    quality_c = xp.read_quality_csv(out / "quality.csv")

    report = xp.detect_breakpoint(success, method=cfg.breakpoint_method)
    xp.write_breakpoint_report(report, out / "threshold.txt")
    inter = xp.regression_intersection(quality_c)
    head = f"threshold: t_star={report.t_star} ({report.method}), quality curves"
    if inter.position == "none":
        print(f"{head} do not cross")
    else:
        where = ""
        if inter.extrapolated:
            edge = quality_c.points[0 if inter.position == "before" else -1].t
            where = f" (extrapolated, {inter.position} t={edge})"
        print(f"{head} cross at t={inter.t_cross:.3f}{where}")
    return {
        "breakpoint_t_star": report.t_star,
        "breakpoint_method": report.method,
        "breakpoint_total_sse": report.total_sse,
        "intersection_t_cross": inter.t_cross,
        "intersection_log_fit_a": inter.log_fit[0],
        "intersection_log_fit_b": inter.log_fit[1],
        "intersection_extrapolated": inter.extrapolated,
        "intersection_position": inter.position,
    }


# Every stage, in pipeline order. All but `threshold` read the input matrix.
_STAGES = {
    "ingest": _ingest,
    "fit": _fit,
    "sweep": _sweep,
    "curves": _curves,
    "threshold": _threshold,
}

# The files a stage reads from --out: (stage, the earlier stage that writes it, file).
_PREREQUISITES = (
    ("curves", "fit", "model.txt"),
    ("threshold", "curves", "success.csv"),
    ("threshold", "curves", "quality.csv"),
)


def _run(cfg: RunConfig, command: str) -> int:
    """Check, read the input, then run the command's stages in order.

    Every usage check comes before the output directory is created, so a
    usage error leaves nothing behind; ``resolved.config`` and a parsed
    ``matrix.bin`` are written once the first stage has succeeded. Each
    stage's timing covers the time since the previous stage ended; the
    first stage's includes the checks and the parse.
    """
    t0 = time.perf_counter()
    out = Path(cfg.out)
    pipeline = tuple(s for s in _STAGES if s != "sweep" or cfg.coeffs)
    stages = pipeline if command == "pipeline" else (command,)
    if "sweep" in stages and not cfg.coeffs:
        raise UsageError("sweep needs a non-empty --coeffs list (e.g. --coeffs 25,50,100)")
    if {"curves", "threshold"} <= set(stages) and cfg.t_max < 2 * xp.BREAKPOINT_MIN_SIDE:
        raise UsageError(
            f"t_max must be >= {2 * xp.BREAKPOINT_MIN_SIDE} for breakpoint detection "
            f"({xp.BREAKPOINT_MIN_SIDE} curve points on each side of a candidate)"
        )
    for stage, earlier, name in _PREREQUISITES:
        if stage in stages and earlier not in stages and not (out / name).exists():
            raise UsageError(f"missing {out / name} (run `{earlier}` first)")
    m, input_summary = None, {}
    if any(s != "threshold" for s in stages):
        m, input_summary = _load_matrix(cfg)
    if "fit" in stages and m.n_users == 0:
        raise UsageError(f"input {cfg.input} holds no ratings")
    if "sweep" in stages and not (m.row_lengths() >= _sweep_floor(cfg)).any():
        raise UsageError(f"no user has >= {_sweep_floor(cfg)} ratings")
    run = dict(_STAGES)
    if "curves" in stages:
        if cfg.resolved_ordering() == ds.BY_TIMESTAMP and m.timestamps is None:
            raise UsageError(f"ordering by_timestamp needs timestamps; {cfg.dataset} input has none")
        users = _sample_curve_users(cfg, m)
        run["curves"] = functools.partial(_curves, users=users)
        # The success curve stops at the longest sampled history.
        points = min(cfg.t_max, int(m.row_lengths()[users].max()))
        if "threshold" in stages and points < 2 * xp.BREAKPOINT_MIN_SIDE:
            raise UsageError(
                f"the success curve would have {points} points (the longest sampled "
                f"history), fewer than the {2 * xp.BREAKPOINT_MIN_SIDE} breakpoint detection needs"
            )
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot create output directory {out}: {e.strerror or e}") from None
    key = input_summary.get("input_sha256")
    for i, name in enumerate(stages):
        fragment = {**run[name](cfg, m, out, key), **input_summary}
        if i == 0:
            write_resolved_config(cfg, out)
            if input_summary.get("matrix_source") == "parsed":
                ds.write_matrix(m, out / MATRIX_FILE, key)
        fragment[f"timing_{name}_s"] = round(time.perf_counter() - t0, 3)
        _update_summary(out, fragment)
        t0 = time.perf_counter()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldstart",
        description=(
            "Estimate how many ratings a new user must give before "
            "cluster-based collaborative filtering assigns them stably."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": "parse the raw dataset and write the canonical rating CSV",
        "fit": "fit the k-means model on full rating histories",
        "sweep": "score NDCG/MAP across cluster-size coefficients",
        "curves": "write prefix-assignment success and quality curves",
        "threshold": "detect the breakpoint and quality-curve intersection",
        "pipeline": "run every stage in order",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--dataset", choices=["movielens", "jester"])
        p.add_argument("--input", metavar="PATH", help="raw dataset file")
        p.add_argument("--k-coeff", dest="k_coeff", type=int, metavar="N")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--t-max", dest="t_max", type=int, metavar="N")
        p.add_argument("--sample", type=int, metavar="N", help="curve cohort sample size")
        p.add_argument("--min-ratings", dest="min_ratings", type=int, metavar="N")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--threads", type=int, metavar="N", help="0 = one per CPU")
        if name in ("sweep", "pipeline"):
            p.add_argument(
                "--coeffs", metavar="LIST", help="comma-separated k coefficients"
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _run(cfg, args.command)
    except (UsageError, ValueError, FileNotFoundError) as e:  # ValueError covers ParseError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MethodologyError as e:
        print(f"methodology error: {e}", file=sys.stderr)
        return EXIT_METHODOLOGY
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
