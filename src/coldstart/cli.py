"""Command-line pipeline: ingest -> fit -> sweep -> curves -> threshold.

A command runs one stage, or all of them for ``pipeline``. It checks its
inputs, parses ``--input`` once and hands the matrix to every stage that
needs it; each stage writes file artifacts into the output directory and
can be re-run independently. ``curves`` reads the model ``fit`` left there
and ``threshold`` the curves ``curves`` left there. A flat ``key = value``
config file provides defaults that individual flags override; each command
writes the fully resolved config next to its outputs, so any artifact can
be regenerated from the directory alone.

Exit codes: 0 success, 2 usage or input error, 3 methodology error
(degenerate model, no curve intersection), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import experiment as xp
from . import kmeans as km
from . import quality as ql
from . import recsys_eval as rv
from .errors import MethodologyError, ParseError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_METHODOLOGY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad flags, config values, or unreadable inputs; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "movielens"
    input_path: str | None = None
    k_coeff: int = 50
    min_ratings: int = 50
    sample_size: int = 100
    seed: int = 0
    ordering: str = "auto"
    t_max: int = 100
    output_dir: str = "coldstart_out"
    threads: int = 1
    coeffs: tuple[int, ...] = ()
    breakpoint_method: str = xp.SEGMENTED_LINEAR
    kmeans_restarts: int = 10
    kmeans_max_steps: int = 100
    kmeans_conv_tol: float = 1e-6
    kmeans_init: str = "kmeanspp"
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
            if getattr(self, _KEY_TO_FIELD.get(key, key)) < 1:
                raise UsageError(f"{key} must be >= 1")
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
        if self.threads == 0:
            import os

            return os.cpu_count() or 1
        return self.threads

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
    "kmeans_init": "init",
}
_EVAL_KEYS = {
    "eval_holdout": "holdout_per_user",
    "eval_pool": "candidate_pool",
    "eval_relevance_threshold": "relevance_threshold",
    "eval_ndcg_cutoff": "ndcg_cutoff",
}

_CONFIG_KEYS = {
    "dataset": str,
    "input": str,
    "k_coeff": int,
    "min_ratings": int,
    "sample": int,
    "seed": int,
    "ordering": str,
    "t_max": int,
    "out": str,
    "threads": int,
    "coeffs": str,
    "breakpoint_method": str,
    "kmeans_restarts": int,
    "kmeans_max_steps": int,
    "kmeans_conv_tol": float,
    "kmeans_init": str,
    "eval_holdout": int,
    "eval_pool": int,
    "eval_relevance_threshold": float,
    "eval_ndcg_cutoff": int,
}

_KEY_TO_FIELD = {
    "input": "input_path",
    "sample": "sample_size",
    "out": "output_dir",
}


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"coeffs must be a comma-separated integer list, not {text!r}")


def parse_config_file(path: str | Path) -> dict:
    """Flat `key = value` lines; blank lines and # comments skipped."""
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
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError:
            raise UsageError(f"{path}:{ln}: bad value for {key}: {val!r}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults <- config file <- explicit flags, in increasing precedence."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    fields = {}
    for key, value in merged.items():
        if key == "coeffs":
            value = _parse_coeffs(value) if isinstance(value, str) else tuple(value)
        fields[_KEY_TO_FIELD.get(key, key)] = value
    try:
        return RunConfig(**fields)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e))


def write_resolved_config(cfg: RunConfig, out: Path) -> None:
    lines = []
    for key in sorted(_CONFIG_KEYS):
        field = _KEY_TO_FIELD.get(key, key)
        value = getattr(cfg, field)
        if value is None:
            continue
        if key == "coeffs":
            if not value:
                continue
            value = ",".join(str(c) for c in value)
        lines.append(f"{key} = {value}")
    (out / "resolved.config").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _update_summary(out: Path, fragment: dict) -> None:
    """Merge a stage's numbers into summary.json (stable key order on disk)."""
    path = out / "summary.json"
    summary = {}
    if path.exists():
        summary = json.loads(path.read_text(encoding="utf-8"))
    summary.update(fragment)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_matrix(cfg: RunConfig) -> ds.RatingMatrix:
    if not cfg.input_path:
        raise UsageError("--input is required for this command")
    path = Path(cfg.input_path)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    if cfg.dataset == "jester":
        return ds.parse_jester(path)
    events = ds.parse_movielens(path)
    return ds.build_matrix(events)


def _curve_cohort(cfg: RunConfig, m: ds.RatingMatrix) -> np.ndarray:
    """Users with at least ``min_ratings`` ratings; a usage error when there are none."""
    eligible = np.flatnonzero(m.row_lengths() >= cfg.min_ratings)
    if len(eligible) == 0:
        raise UsageError(f"no users with >= {cfg.min_ratings} ratings to sample from")
    return eligible


def _sample_curve_users(cfg: RunConfig, m: ds.RatingMatrix) -> np.ndarray:
    eligible = _curve_cohort(cfg, m)
    n = cfg.sample_size
    if n > len(eligible):
        print(
            f"warning: sample {n} exceeds the {len(eligible)} eligible users; "
            "using all of them",
            file=sys.stderr,
        )
        n = len(eligible)
    return np.asarray(ds.sample_users(m, n, cfg.seed, among=eligible))


def _ingest(cfg: RunConfig, m: ds.RatingMatrix, out: Path) -> dict:
    ds.export_canonical_csv(m, out / "canonical.csv")
    print(f"ingest: {m.n_users} users, {m.n_items} items, {m.n_ratings} ratings")
    return {
        "dataset": cfg.dataset,
        "n_users": m.n_users,
        "n_items": m.n_items,
        "n_ratings": m.n_ratings,
    }


def _fit(cfg: RunConfig, m: ds.RatingMatrix, out: Path) -> dict:
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
    db_signed = None
    if k >= 2:
        try:
            db_signed = ql.davies_bouldin(model, m).db_signed
        except MethodologyError as e:
            print(f"warning: cluster quality unavailable: {e}", file=sys.stderr)
    db_text = "n/a" if db_signed is None else repr(db_signed)
    print(f"fit: n_clusters={k} sse={model.sse!r} db_signed={db_text}")
    return {
        "n_clusters": k,
        "sse": model.sse,
        "db_signed": db_signed,
        "kmeans_kernel": model.kernel,
        "kmeans_fill_ratio": km.fill_ratio(m),
        "kmeans_blas_thread_cap": km.blas_thread_cap_found(),
    }


def _sweep_users(cfg: RunConfig, m: ds.RatingMatrix) -> ds.RatingMatrix:
    """Users whose rows can spare the holdout and meet the run's floor."""
    return ds.filter_min_ratings(m, max(cfg.min_ratings, cfg.eval_holdout + 1))


def _sweep(cfg: RunConfig, m: ds.RatingMatrix, out: Path) -> dict:
    result = rv.sweep_coefficient(
        _sweep_users(cfg, m),
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


def _curves(cfg: RunConfig, m: ds.RatingMatrix, out: Path) -> dict:
    # Reloaded even right after `fit`: load_model re-derives the assignments
    # without fit's empty-cluster repair, so a staged rerun sees the same model.
    model = km.load_model(out / "model.txt", m)
    users = _sample_curve_users(cfg, m)
    ordering = cfg.resolved_ordering()

    success = xp.success_curve(model, m, users, cfg.t_max, ordering)
    xp.write_success_csv(success, out / "success.csv")
    quality_c = xp.quality_curve(model, m, users, cfg.t_max, ordering)
    xp.write_quality_csv(quality_c, out / "quality.csv")

    fragment = {"curve_users": len(users)}
    if cfg.dataset == "movielens":
        min_count, min_cohort, _ = xp.split_by_min_count(m)
        if len(min_cohort):
            cohort_curve = xp.success_curve(model, m, min_cohort, cfg.t_max, ordering)
            xp.write_success_csv(cohort_curve, out / "success_mincohort.csv")
            fragment["min_cohort_count"] = int(len(min_cohort))
            fragment["min_cohort_ratings"] = min_count
    print(
        f"curves: success over {len(success.points)} prefix lengths, "
        f"{len(users)} users evaluated"
    )
    return fragment


def _threshold(cfg: RunConfig, out: Path) -> dict:
    success = xp.read_success_csv(out / "success.csv")
    quality_c = xp.read_quality_csv(out / "quality.csv")

    report = xp.detect_breakpoint(success, method=cfg.breakpoint_method)
    xp.write_breakpoint_report(report, out / "threshold.txt")
    inter = xp.regression_intersection(quality_c)
    print(
        f"threshold: t_star={report.t_star} ({report.method}), "
        f"quality curves cross at t={inter.t_cross:.3f}"
        f"{' (extrapolated)' if inter.extrapolated else ''}"
    )
    return {
        "breakpoint_t_star": report.t_star,
        "breakpoint_method": report.method,
        "breakpoint_total_sse": report.total_sse,
        "intersection_t_cross": inter.t_cross,
        "intersection_log_fit_a": inter.log_fit[0],
        "intersection_log_fit_b": inter.log_fit[1],
        "intersection_extrapolated": inter.extrapolated,
    }


# Stages that read the input matrix, in pipeline order; `threshold` reads
# only the curve CSVs.
_MATRIX_STAGES = {"ingest": _ingest, "fit": _fit, "sweep": _sweep, "curves": _curves}


def _stages(command: str, cfg: RunConfig) -> tuple[str, ...]:
    """The stages a command runs, in order."""
    if command == "pipeline":
        return ("ingest", "fit", *(("sweep",) if cfg.coeffs else ()), "curves", "threshold")
    if command == "threshold":
        out = Path(cfg.output_dir)
        if not ((out / "success.csv").exists() and (out / "quality.csv").exists()):
            if not cfg.input_path:
                raise UsageError(
                    f"curve CSVs not found in {out} and no --input given to compute them"
                )
            return ("curves", "threshold")
    return (command,)


def _run(cfg: RunConfig, stages: tuple[str, ...]) -> int:
    """Check, parse the input, write the config, then run the stages in order.

    Every usage check comes before the output directory is created, so a
    usage error leaves nothing behind. Each stage's timing covers the time
    since the previous stage ended; the first stage's includes the checks
    and the parse.
    """
    t0 = time.perf_counter()
    out = Path(cfg.output_dir)
    if "sweep" in stages and not cfg.coeffs:
        raise UsageError("sweep needs a non-empty --coeffs list (e.g. --coeffs 25,50,100)")
    if "curves" in stages and "fit" not in stages and not (out / "model.txt").exists():
        raise UsageError(f"missing model file: {out / 'model.txt'} (run `fit` first)")
    m = _load_matrix(cfg) if any(s in _MATRIX_STAGES for s in stages) else None
    if "sweep" in stages:
        _sweep_users(cfg, m)
    if "curves" in stages:
        _curve_cohort(cfg, m)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out)
    for name in stages:
        if name == "threshold":
            fragment = _threshold(cfg, out)
        else:
            fragment = _MATRIX_STAGES[name](cfg, m, out)
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
        return _run(cfg, _stages(args.command, cfg))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MethodologyError as e:
        print(f"methodology error: {e}", file=sys.stderr)
        return EXIT_METHODOLOGY
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
