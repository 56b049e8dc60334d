import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import dataset_oracle
import numpy as np
import pytest

from coldstart import cli
from coldstart import dataset as ds
from coldstart import experiment as xp
from coldstart import kmeans as km
from coldstart.cli import (
    EXIT_INTERNAL,
    EXIT_METHODOLOGY,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_config_file,
)
from conftest import child_env


# ---------------------------------------------------------------- smoke inputs

def _write_jester(path, n_users=30, rated=60, seed=0):
    """Three taste blocs at different rating magnitudes.

    The magnitude tiers make short zero-filled prefixes drift through the
    lower-norm clusters before settling, so success and quality curves
    actually rise instead of starting saturated.
    """
    rng = np.random.default_rng(seed)
    tier_mean = [-6.0, 1.0, 8.0]
    lines = []
    for u in range(n_users):
        mean = tier_mean[u % 3]
        cells = ["99"] * 100
        for i in range(rated):
            cells[i] = f"{np.clip(mean + rng.normal(0, 1.0), -10, 10):.2f}"
        lines.append(",".join([str(rated)] + cells))
    path.write_text("\n".join(lines) + "\n")


def _write_movielens(path, seed=1, n_items=30):
    """40 users in three value tiers; 10 users hold the 5-rating minimum."""
    rng = np.random.default_rng(seed)
    tier_vals = [(1, 2), (3, 3), (4, 5)]
    lines = []
    for u in range(40):
        n = 5 if u < 10 else int(rng.integers(8, 13))
        items = rng.choice(n_items, size=n, replace=False)
        lo, hi = tier_vals[u % 3]
        for j, it in enumerate(items):
            val = int(rng.integers(lo, hi + 1))
            lines.append(f"{u}::{it}::{val}::{100000 + u * 100 + j}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def jester_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "jester.csv"
    _write_jester(p)
    return p


@pytest.fixture(scope="module")
def ml_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "ratings.dat"
    _write_movielens(p)
    return p


ARTIFACTS = [
    "canonical.csv", "model.txt", "success.csv",
    "quality.csv", "threshold.txt", "summary.json", "resolved.config",
]


# ---------------------------------------------------------------- pipelines

def test_pipeline_jester_end_to_end(jester_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "pipeline", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
        "--t-max", "80", "--seed", "0", "--out", str(out),
    ])
    assert rc == EXIT_OK
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    # one merged report with keys from every stage
    for key in ("dataset", "n_users", "sse", "curve_users", "breakpoint_t_star"):
        assert key in summary, key
    assert summary["n_users"] == 30
    stdout = capsys.readouterr().out
    assert "ingest: 30 users" in stdout
    assert "threshold: t_star=" in stdout


def test_pipeline_movielens_writes_min_cohort(ml_file, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "pipeline", "--dataset", "movielens", "--input", str(ml_file),
        "--k-coeff", "10", "--min-ratings", "6", "--sample", "10",
        "--t-max", "12", "--seed", "0", "--out", str(out),
    ])
    assert rc == EXIT_OK
    cohort = (out / "success_mincohort.csv").read_text().splitlines()
    assert cohort[0] == "t,success_fraction,n_evaluated"
    # the exactly-5-ratings cohort: 10 users, curve stops at their length
    assert len(cohort) == 1 + 5
    assert cohort[1].endswith(",10")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["min_cohort_ratings"] == 5
    assert summary["min_cohort_count"] == 10


def test_pipeline_runs_sweep_when_coeffs_given(jester_file, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "pipeline", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--coeffs", "10,30", "--min-ratings", "50",
        "--sample", "20", "--t-max", "80", "--seed", "0", "--out", str(out),
    ])
    assert rc == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k_coeff,n_clusters,ndcg_mean,map_mean"
    assert len(lines) == 4  # header + 2 rows + best-by footer
    assert lines[-1].startswith("# best_by_ndcg=")


def test_stages_rerun_independently(jester_file, tmp_path):
    out = tmp_path / "out"
    common = [
        "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
        "--t-max", "80", "--seed", "0", "--out", str(out),
    ]
    for stage in ("ingest", "fit", "curves", "threshold"):
        assert main([stage, *common]) == EXIT_OK
    first = (out / "threshold.txt").read_text()
    # threshold recomputes from the stored curves and reproduces itself
    assert main(["threshold", *common]) == EXIT_OK
    assert (out / "threshold.txt").read_text() == first


DETERMINISTIC = [
    "canonical.csv", "model.txt", "sweep.csv", "success.csv",
    "success_mincohort.csv", "quality.csv", "threshold.txt",
]


@pytest.mark.parametrize("dataset", ["jester", "movielens"])
def test_pipeline_parses_once_and_matches_staged_commands(
    dataset, jester_file, ml_file, tmp_path, monkeypatch
):
    if dataset == "jester":
        data, flags = jester_file, ["--min-ratings", "50", "--sample", "20", "--t-max", "80"]
        parsers = ["parse_jester"]
    else:
        data, flags = ml_file, ["--min-ratings", "6", "--sample", "10", "--t-max", "12"]
        parsers = ["parse_movielens", "build_matrix"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval_holdout = 3\n")

    def argv(command, out):
        return [
            command, "--dataset", dataset, "--input", str(data), "--config", str(cfg),
            "--k-coeff", "10", "--seed", "0", "--out", str(out), *flags,
            *(["--coeffs", "10,20"] if command in ("sweep", "pipeline") else []),
        ]

    calls = {name: 0 for name in parsers}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in parsers:
        monkeypatch.setattr(cli.ds, name, counted(name, getattr(cli.ds, name)))
    assert main(argv("pipeline", tmp_path / "piped")) == EXIT_OK
    assert calls == {name: 1 for name in parsers}

    # Only `ingest` parses; every later stage reads the matrix it left.
    staged_out = tmp_path / "staged"
    for stage in ("ingest", "fit", "sweep", "curves", "threshold"):
        assert main(argv(stage, staged_out)) == EXIT_OK, stage
        assert calls == {name: 2 for name in parsers}, stage
        if stage != "threshold":
            source = json.loads((staged_out / "summary.json").read_text())["matrix_source"]
            assert source == ("parsed" if stage == "ingest" else "handoff"), stage
    written = [n for n in DETERMINISTIC if (tmp_path / "piped" / n).exists()]
    assert "sweep.csv" in written
    assert ("success_mincohort.csv" in written) == (dataset == "movielens")
    handoffs = [tmp_path / d / cli.MATRIX_FILE for d in ("piped", "staged")]
    assert handoffs[0].read_bytes() == handoffs[1].read_bytes()
    for name in DETERMINISTIC:
        piped, staged = tmp_path / "piped" / name, tmp_path / "staged" / name
        assert piped.exists() == staged.exists(), name
        if piped.exists():
            assert piped.read_bytes() == staged.read_bytes(), name


def test_pipeline_is_deterministic(jester_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "pipeline", "--dataset", "jester", "--input", str(jester_file),
            "--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
            "--t-max", "80", "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        outs.append(out)
    for name in ("model.txt", "success.csv", "quality.csv", "threshold.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------- matrix handoff

def _fit_then_copy(data, tmp_path, flags):
    """Run `ingest` and `fit` into one directory.

    Returns its flags, and those of a copy of it without the handoff file.
    """
    def common(out):
        return ["--input", str(data), "--out", str(out), *flags]

    out = tmp_path / "out"
    for stage in ("ingest", "fit"):
        assert main([stage, *common(out)]) == EXIT_OK
    bare = tmp_path / "bare"
    shutil.copytree(out, bare)
    (bare / cli.MATRIX_FILE).unlink()
    return common(out), common(bare)


def _curve_artifacts(out):
    return {n: (out / n).read_bytes() for n in DETERMINISTIC if (out / n).exists()}


ML_FLAGS = ["--dataset", "movielens", "--k-coeff", "10", "--min-ratings", "6",
            "--sample", "10", "--t-max", "12", "--seed", "0"]
JESTER_FLAGS = ["--dataset", "jester", "--k-coeff", "10", "--min-ratings", "50",
                "--sample", "20", "--t-max", "80", "--seed", "0"]


def test_summary_names_the_input_and_where_its_matrix_came_from(ml_file, tmp_path):
    out = tmp_path / "o"
    flags = ["--input", str(ml_file), "--out", str(out), *ML_FLAGS]
    tag = f"{ds.MATRIX_FORMAT} movielens\n".encode()
    key = hashlib.sha256(tag + ml_file.read_bytes()).hexdigest()
    stages = (("ingest", "parsed"), ("fit", "handoff"), ("curves", "handoff"), ("ingest", "handoff"))
    for stage, source in stages:
        assert main([stage, *flags]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["input_sha256"], summary["matrix_source"]) == (key, source), stage
        if source == "parsed":
            canonical = (out / "canonical.csv").read_bytes()
    # `ingest` exports the same bytes from the matrix file as from a parse.
    assert (out / "canonical.csv").read_bytes() == canonical


def test_stale_handoff_is_parsed_around(ml_file, tmp_path):
    data = tmp_path / "ratings.dat"
    shutil.copy(ml_file, data)
    flags, bare_flags = _fit_then_copy(data, tmp_path, ML_FLAGS)
    # Edit one rating of the input after `ingest` wrote the handoff.
    lines = data.read_text().splitlines()
    user, item, value, stamp = lines[20].split("::")
    lines[20] = "::".join([user, item, "5" if value != "5" else "1", stamp])
    data.write_text("\n".join(lines) + "\n")

    assert main(["curves", *flags]) == EXIT_OK
    assert main(["curves", *bare_flags]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["matrix_source"] == "parsed"
    assert _curve_artifacts(tmp_path / "out") == _curve_artifacts(tmp_path / "bare")


def test_summary_counts_describe_the_matrix_a_stage_read(ml_file, tmp_path):
    data = tmp_path / "ratings.dat"
    shutil.copy(ml_file, data)
    flags, _ = _fit_then_copy(data, tmp_path, ML_FLAGS)
    # Append one rating by a new user after `ingest` wrote the handoff.
    with open(data, "a") as fh:
        fh.write("999999::1::5::1\n")

    m = ds.build_matrix(ds.parse_movielens(data))
    assert (m.n_users, m.n_ratings) == (41, len(ml_file.read_text().splitlines()) + 1)
    # The stage that parsed rewrites the handoff, so the next one reads it.
    for source in ("parsed", "handoff"):
        assert main(["curves", *flags]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        counts = {k: summary[k] for k in ("dataset", "n_users", "n_items", "n_ratings")}
        assert counts == {"dataset": "movielens", "n_users": m.n_users,
                          "n_items": m.n_items, "n_ratings": m.n_ratings}
        assert summary["matrix_source"] == source


def test_handoff_key_differs_between_datasets(jester_file, tmp_path):
    out = tmp_path / "o"
    assert main(["ingest", "--dataset", "jester", "--input", str(jester_file),
                 "--out", str(out)]) == EXIT_OK
    keys = {d: cli._input_key(d, jester_file) for d in ("jester", "movielens")}
    assert keys["jester"] != keys["movielens"]
    assert ds.read_matrix(out / cli.MATRIX_FILE, keys["jester"]) is not None
    assert ds.read_matrix(out / cli.MATRIX_FILE, keys["movielens"]) is None


def test_truncated_handoff_warns_and_is_parsed_around(jester_file, tmp_path):
    flags, bare_flags = _fit_then_copy(jester_file, tmp_path, JESTER_FLAGS)
    handoff = tmp_path / "out" / cli.MATRIX_FILE
    handoff.write_bytes(handoff.read_bytes()[: handoff.stat().st_size // 2])

    with pytest.warns(UserWarning, match="unreadable matrix file"):
        assert main(["curves", *flags]) == EXIT_OK
    assert main(["curves", *bare_flags]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["matrix_source"] == "parsed"
    assert _curve_artifacts(tmp_path / "out") == _curve_artifacts(tmp_path / "bare")


# ---------------------------------------------------------------- labels handoff

def _fit_labels(out, data):
    """The key `curves` expects for the labels `fit` left in ``out``, the labels, and k."""
    input_key = cli._input_key("movielens", data)
    model = km.load_model(out / "model.txt", ds.read_matrix(out / cli.MATRIX_FILE, input_key))
    key = km.labels_key(model.centroids, input_key)
    (labels,) = ds.read_records(out / cli.LABELS_FILE, key, 1)
    return key, labels, model.n_clusters


def test_edited_model_is_reassigned_not_given_fits_labels(ml_file, tmp_path):
    flags, bare_flags = _fit_then_copy(ml_file, tmp_path, ML_FLAGS)
    out, bare = tmp_path / "out", tmp_path / "bare"
    (bare / cli.LABELS_FILE).unlink()
    # Labels other than the nearest centroids, under the key `fit` used: `curves` takes them.
    key, labels, k = _fit_labels(out, ml_file)
    ds.write_records(out / cli.LABELS_FILE, key, [(labels + 1) % k])
    assert main(["curves", *flags]) == EXIT_OK
    assert main(["curves", *bare_flags]) == EXIT_OK
    assert _curve_artifacts(out) != _curve_artifacts(bare)
    # After one centroid digit changes, the key no longer matches, so `curves` reassigns.
    for d in (out, bare):
        lines = (d / "model.txt").read_text().splitlines()
        digit = re.search(r"[1-9]", lines[1])
        lines[1] = lines[1][: digit.start()] + str(int(digit[0]) % 9 + 1) + lines[1][digit.end():]
        (d / "model.txt").write_text("\n".join(lines) + "\n")
    assert main(["curves", *flags]) == EXIT_OK
    assert main(["curves", *bare_flags]) == EXIT_OK
    assert _curve_artifacts(out) == _curve_artifacts(bare)


@pytest.mark.parametrize("damage", ["truncated", "label_out_of_range"])
def test_damaged_labels_warn_and_are_reassigned(damage, ml_file, tmp_path):
    flags, bare_flags = _fit_then_copy(ml_file, tmp_path, ML_FLAGS)
    out, bare = tmp_path / "out", tmp_path / "bare"
    (bare / cli.LABELS_FILE).unlink()
    path = out / cli.LABELS_FILE
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    else:
        key, labels, k = _fit_labels(out, ml_file)
        ds.write_records(path, key, [np.where(np.arange(len(labels)) == 0, k, labels)])

    with pytest.warns(UserWarning, match="unreadable labels file"):
        assert main(["curves", *flags]) == EXIT_OK
    assert main(["curves", *bare_flags]) == EXIT_OK
    assert _curve_artifacts(out) == _curve_artifacts(bare)


# ---------------------------------------------------------------- config handling

def test_flags_override_config_file(jester_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "dataset = jester\n"
        f"input = {jester_file}\n"
        "k_coeff = 7\n"
        "seed = 5\n"
    )
    out = tmp_path / "out"
    rc = main(["ingest", "--config", str(cfg), "--k-coeff", "3", "--out", str(out)])
    assert rc == EXIT_OK
    resolved = dict(
        line.split(" = ", 1) for line in (out / "resolved.config").read_text().splitlines()
    )
    assert resolved["k_coeff"] == "3"     # flag wins
    assert resolved["seed"] == "5"        # file value kept
    assert resolved["dataset"] == "jester"
    keys = list(resolved)
    assert keys == sorted(keys)


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = jester\nk_coef = 7\n")
    rc = main(["ingest", "--config", str(cfg), "--input", "x", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "k_coef" in err and ":2" in err


def test_parse_config_file_types(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max = 42\nkmeans_conv_tol = 1e-4\nordering = by_timestamp\n")
    values = parse_config_file(cfg)
    assert values == {"t_max": 42, "kmeans_conv_tol": 1e-4, "ordering": "by_timestamp"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("dataset", "netflix"),
        ("k_coeff", 0),
        ("sample", -1),
        ("ordering", "sideways"),
        ("breakpoint_method", "eyeball"),
        ("threads", -2),
        ("kmeans_restarts", 0),
        ("kmeans_max_steps", 0),
        ("eval_holdout", 0),
    ],
)
def test_run_config_rejects_bad_values(field, value):
    with pytest.raises(cli.UsageError):
        RunConfig(**{field: value})


def test_run_config_ordering_resolution():
    from coldstart.dataset import BY_ITEM_INDEX, BY_TIMESTAMP

    assert RunConfig(dataset="movielens").resolved_ordering() == BY_TIMESTAMP
    assert RunConfig(dataset="jester").resolved_ordering() == BY_ITEM_INDEX
    assert (
        RunConfig(dataset="jester", ordering="by_timestamp").resolved_ordering()
        == BY_TIMESTAMP
    )


# ---------------------------------------------------------------- exit codes

def test_missing_input_is_usage_error(tmp_path, capsys):
    rc = main(["fit", "--dataset", "jester", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "input" in capsys.readouterr().err


def test_nonexistent_input_is_usage_error(tmp_path):
    rc = main([
        "ingest", "--dataset", "jester", "--input", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ingest", "fit"])
def test_directory_input_is_usage_error(command, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    rc = main([
        command, "--dataset", "jester", "--input", str(data), "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read input {data}")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ingest", "fit"])
def test_existing_file_as_out_is_usage_error(command, jester_file, tmp_path, capsys, recwarn):
    out = tmp_path / "o"
    out.write_text("not a directory\n")
    rc = main([command, "--dataset", "jester", "--input", str(jester_file), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}")
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
    assert not recwarn.list  # `fit` finds no matrix.bin to read, not an unreadable one


def test_malformed_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    rc = main([
        "ingest", "--dataset", "jester", "--input", str(bad),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_without_relevant_items_reports_no_best_by_map(tmp_path, capsys):
    # every rating is below the default relevance threshold of 4
    rng = np.random.default_rng(3)
    data = tmp_path / "low.dat"
    data.write_text("".join(
        f"{u}::{it}::{rng.integers(1, 4)}::{1000 + u * 100 + j}\n"
        for u in range(12)
        for j, it in enumerate(rng.choice(30, size=15, replace=False))
    ))
    out = tmp_path / "o"
    rc = main([
        "sweep", "--dataset", "movielens", "--input", str(data), "--coeffs", "2,4",
        "--min-ratings", "11", "--seed", "0", "--out", str(out),
    ])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "best_by_map=n/a" in stdout
    assert "nan" not in stdout
    assert [line.endswith(" map=n/a") for line in stdout.splitlines()[:2]] == [True, True]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[-1].endswith(" best_by_map=n/a")
    assert [line.split(",")[3] for line in lines[1:3]] == ["n/a", "n/a"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sweep_best_by_map"] is None
    assert summary["sweep_best_by_ndcg"] in (2, 4)


@pytest.mark.parametrize("rated, kernel", [(60, "dense"), (10, "csr")])
def test_fit_summary_names_its_kernel(rated, kernel, tmp_path):
    data = tmp_path / "jester.csv"
    _write_jester(data, rated=rated)  # 60 or 10 of 100 items rated
    out = tmp_path / "o"
    rc = main(["fit", "--dataset", "jester", "--input", str(data), "--k-coeff", "10", "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kmeans_kernel"] == kernel
    assert summary["kmeans_fill_ratio"] == rated / 100
    assert summary["kmeans_blas_thread_cap"] is km.blas_thread_cap_found()


def test_fit_summary_records_each_restart(jester_file, tmp_path):
    out = tmp_path / "o"
    rc = main([
        "fit", "--dataset", "jester", "--input", str(jester_file), "--k-coeff", "10",
        "--seed", "3", "--threads", "2", "--out", str(out),
    ])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    records = summary["kmeans_restarts"]
    assert len(records) == 10  # the default kmeans_restarts, in restart order
    for r in records:
        assert set(r) == {"steps", "stop", "sse"}
        assert r["stop"] in ("labels_stable", "shift_below_tol", "max_steps")
        assert 0 <= r["steps"] <= 100
    assert min(r["sse"] for r in records) == summary["sse"]


def test_fit_summary_records_config_fingerprint_and_numpy_version(jester_file, tmp_path):
    # One rating digit of user 1 (mean 1.0, so the edit stays in range) changes.
    edited = tmp_path / "edited.csv"
    lines = jester_file.read_text().splitlines()
    dot = lines[1].index(".") + 1
    lines[1] = lines[1][:dot] + str((int(lines[1][dot]) + 1) % 10) + lines[1][dot + 1:]
    edited.write_text("\n".join(lines) + "\n")
    runs = {"a": (jester_file, "10"), "b": (jester_file, "10"),
            "edited": (edited, "10"), "k_coeff": (jester_file, "5")}
    summaries = {}
    for name, (data, k_coeff) in runs.items():
        out = tmp_path / name
        assert main(["fit", "--dataset", "jester", "--input", str(data),
                     "--k-coeff", k_coeff, "--out", str(out)]) == EXIT_OK
        summaries[name] = json.loads((out / "summary.json").read_text())
    prints = {name: s["kmeans_config_fingerprint"] for name, s in summaries.items()}
    assert re.fullmatch(r"[0-9a-f]{16}", prints["a"])
    assert prints["a"] == prints["b"]
    assert len({prints["a"], prints["edited"], prints["k_coeff"]}) == 3, prints
    assert summaries["a"]["numpy_version"] == summaries["b"]["numpy_version"] == np.__version__


def test_ingest_writes_the_csv_writer_export(ml_file, tmp_path):
    # The MovieLens fixture carries timestamps; both sides write through a file path.
    out = tmp_path / "o"
    rc = main(["ingest", "--dataset", "movielens", "--input", str(ml_file), "--out", str(out)])
    assert rc == EXIT_OK
    want = tmp_path / "oracle.csv"
    dataset_oracle.export_canonical_csv(ds.build_matrix(ds.parse_movielens(ml_file)), want)
    assert (out / "canonical.csv").read_bytes() == want.read_bytes()
    assert not (out / "canonical.csv").read_text().splitlines()[1].endswith(",")


def test_model_does_not_depend_on_openblas_thread_count(tmp_path):
    # 1,500 users x 66 rated of 100 items: the dense kernel, with products
    # large enough for OpenBLAS to split them when it may
    data = tmp_path / "jester.csv"
    _write_jester(data, n_users=1500, rated=66, seed=4)
    env = child_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    models = []
    for blas_threads in (None, "1"):
        out = tmp_path / f"o{blas_threads}"
        run_env = env if blas_threads is None else {**env, "OPENBLAS_NUM_THREADS": blas_threads}
        proc = subprocess.run(
            [sys.executable, "-m", "coldstart.cli", "fit", "--dataset", "jester",
             "--input", str(data), "--k-coeff", "15", "--threads", "1", "--out", str(out)],
            cwd=tmp_path, env=run_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads((out / "summary.json").read_text())["kmeans_kernel"] == "dense"
        models.append((out / "model.txt").read_bytes())
    assert models[0] == models[1]


def test_sweep_without_coeffs_is_usage_error(jester_file, tmp_path, capsys):
    rc = main([
        "sweep", "--dataset", "jester", "--input", str(jester_file),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_USAGE
    assert "coeffs" in capsys.readouterr().err


def _write_curves(out, quality_offset, slope=0.5):
    """A success curve with a knee at t = 10, and a log quality curve over t = 1..20.

    The quality curve is -2 + slope ln t against a reference of -2 - quality_offset:
    it starts above its reference when the offset is positive, and it falls
    when the slope is negative.
    """
    out.mkdir(parents=True, exist_ok=True)
    ts = np.arange(1, 21)
    success = np.minimum(ts, 10) / 10.0
    xp.write_success_csv(
        xp.SuccessCurve(tuple(xp.SuccessPoint(int(t), float(y), 50) for t, y in zip(ts, success))),
        out / "success.csv",
    )
    ref = -2.0 - quality_offset
    xp.write_quality_csv(
        xp.QualityCurve(tuple(xp.QualityPoint(int(t), float(-2.0 + slope * np.log(t)), ref) for t in ts)),
        out / "quality.csv",
    )


@pytest.mark.parametrize(
    "offset, position, note",
    [
        (0.5, "before", " (extrapolated, before t=1)"),  # fit crosses at t = e^-1
        (-1.0, "within", ""),  # t = e^2
        (-2.0, "beyond", " (extrapolated, beyond t=20)"),  # t = e^4
    ],
)
def test_threshold_names_where_the_crossing_lies(offset, position, note, tmp_path, capsys):
    out = tmp_path / "o"
    _write_curves(out, offset)
    rc = main(["threshold", "--dataset", "jester", "--out", str(out)])
    assert rc == EXIT_OK
    t_cross = np.exp(-2.0 * offset)
    assert f"cross at t={t_cross:.3f}{note}\n" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["intersection_position"] == position
    assert summary["intersection_extrapolated"] is (position != "within")
    assert summary["intersection_t_cross"] == pytest.approx(t_cross, rel=1e-9)


def test_threshold_reports_a_nan_crossing_as_extrapolated(tmp_path, capsys):
    out = tmp_path / "o"
    _write_curves(out, float("nan"))  # a NaN reference level
    rc = main(["threshold", "--dataset", "jester", "--out", str(out)])
    assert rc == EXIT_OK
    assert "cross at t=nan (extrapolated, beyond t=20)\n" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["intersection_position"] == "beyond"
    assert summary["intersection_extrapolated"] is True


def test_threshold_without_a_crossing_reports_none_and_the_falling_fit(tmp_path, capsys):
    out = tmp_path / "o"
    _write_curves(out, -1.0, slope=-0.5)
    # An earlier run's breakpoint and crossing.
    earlier = {"breakpoint_t_star": 4, "intersection_t_cross": 7.4,
               "intersection_position": "within", "sse": 1.5}
    (out / "summary.json").write_text(json.dumps(earlier))
    rc = main(["threshold", "--dataset", "jester", "--out", str(out)])
    assert rc == EXIT_OK
    printed = capsys.readouterr()
    assert printed.err == ""
    assert "threshold: t_star=10 (segmented_linear), quality curves do not cross\n" == printed.out
    t_star = re.search(r"^t_star=(\d+)$", (out / "threshold.txt").read_text(), re.M)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["breakpoint_t_star"] == int(t_star[1]) == 10
    assert summary["timing_threshold_s"] >= 0
    assert summary["breakpoint_method"] == "segmented_linear"
    assert "breakpoint_total_sse" in summary
    assert summary["intersection_position"] == "none"
    assert summary["intersection_t_cross"] is None
    assert summary["intersection_extrapolated"] is False
    assert summary["intersection_log_fit_a"] == pytest.approx(-2.0, abs=1e-12)
    assert summary["intersection_log_fit_b"] == pytest.approx(-0.5, abs=1e-12)
    assert summary["sse"] == 1.5


def test_two_cluster_pipeline_reports_flat_curves_as_not_crossing(jester_file, tmp_path, capsys):
    # With k = 2 both clusters' quality terms are one pairwise value, so the
    # current series is flat at the reference and its fitted slope is rounding.
    out = tmp_path / "o"
    rc = main([
        "pipeline", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "15", "--min-ratings", "50", "--sample", "30", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.endswith("quality curves do not cross\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_clusters"] == 2
    assert summary["intersection_position"] == "none"
    assert abs(summary["intersection_log_fit_b"]) < 1e-12
    quality = xp.read_quality_csv(out / "quality.csv").points
    assert len({(p.current_quality_mean, p.reference_quality_mean) for p in quality}) == 1


def test_threshold_with_input_but_no_curves_is_usage_error(ml_file, tmp_path, capsys):
    out = tmp_path / "o"
    flags = ["--input", str(ml_file), "--out", str(out), *ML_FLAGS]
    for stage in ("ingest", "fit"):
        assert main([stage, *flags]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["threshold", *flags]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: missing {out / 'success.csv'} (run `curves` first)\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_threshold_without_curves_or_input_is_usage_error(tmp_path, capsys):
    rc = main(["threshold", "--dataset", "jester", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "curve" in capsys.readouterr().err.lower()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["success.csv", "quality.csv"])
@pytest.mark.parametrize(
    "row", ["2,0.5", "2,0.5,50,7", "2,half,50"], ids=["short-row", "extra-field", "non-numeric"]
)
def test_malformed_curve_csv_is_usage_error(name, row, tmp_path, capsys):
    out = tmp_path / "o"
    _write_curves(out, -1.0)
    lines = (out / name).read_text().splitlines()
    lines[2] = row  # the t = 2 row, on line 3
    (out / name).write_text("\n".join(lines) + "\n")
    assert main(["threshold", "--dataset", "jester", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 3: {out / name}: row {row} does not fit the header: ")
    assert "Traceback" not in err
    assert not (out / "threshold.txt").exists()


# Rows out of t order, in either curve file: (damage, the line it names, id).
_T_ORDER_DAMAGE = [
    # The rows reversed: t = 19 follows t = 20.
    (lambda lines: [lines[0], *lines[:0:-1]], "line 3", "reversed"),
    # The t = 2 row at t = 1 again.
    (lambda lines: [*lines[:2], b"1" + lines[2][1:], *lines[3:]], "line 3", "repeated-t"),
    # The first row at t = 0.
    (lambda lines: [lines[0], b"0" + lines[1][1:], *lines[2:]], "line 2", "t-zero"),
]


@pytest.mark.parametrize(
    "name, damage, where",
    [
        # A field longer than csv.field_size_limit() on the t = 2 row.
        pytest.param(
            "success.csv", lambda lines: [*lines[:2], b"2," + b"5" * 200_000 + b",50", *lines[3:]], "line 3",
            id="oversized-field",
        ),
        # A byte that is not UTF-8 on a line of its own after the last row.
        pytest.param("quality.csv", lambda lines: [*lines, b"\xff"], "line 22", id="not-utf8"),
        *(
            pytest.param(name, damage, where, id=f"{kind}-{name}")
            for damage, where, kind in _T_ORDER_DAMAGE
            for name in ("success.csv", "quality.csv")
        ),
    ],
)
def test_unreadable_curve_csv_is_usage_error_naming_the_file(name, damage, where, tmp_path, capsys):
    out = tmp_path / "o"
    _write_curves(out, -1.0)
    lines = (out / name).read_bytes().splitlines()
    (out / name).write_bytes(b"\n".join(damage(lines)) + b"\n")
    assert main(["threshold", "--dataset", "jester", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: {out / name}: ")
    assert "Traceback" not in err
    assert not (out / "threshold.txt").exists()


@pytest.mark.parametrize("earlier", [None, "dataset = jester\nseed = 7\n"], ids=["absent", "kept"])
def test_threshold_that_fails_leaves_resolved_config_as_it_was(earlier, tmp_path):
    out = tmp_path / "o"
    _write_curves(out, -1.0)
    lines = (out / "success.csv").read_text().splitlines()
    lines[2] = "2,0.5"
    (out / "success.csv").write_text("\n".join(lines) + "\n")
    config = out / "resolved.config"
    if earlier is not None:
        config.write_text(earlier)
    assert main(["threshold", "--dataset", "jester", "--seed", "3", "--out", str(out)]) == EXIT_USAGE
    if earlier is None:
        assert not config.exists()
    else:
        assert config.read_bytes() == earlier.encode()


@pytest.mark.parametrize(
    "damage",
    [lambda text: text[: len(text) // 2], lambda text: "[1, 2]\n"],
    ids=["truncated", "json-list"],
)
def test_damaged_summary_warns_and_is_rebuilt(damage, tmp_path):
    out = tmp_path / "o"
    _write_curves(out, -1.0)
    argv = ["threshold", "--dataset", "jester", "--out", str(out)]
    assert main(argv) == EXIT_OK
    path = out / "summary.json"
    first = json.loads(path.read_text())
    path.write_text(damage(path.read_text()))
    with pytest.warns(UserWarning, match=f"unreadable summary file {re.escape(str(path))}"):
        assert main(argv) == EXIT_OK
    summary = json.loads(path.read_text())
    assert set(summary) == set(first)
    assert summary["breakpoint_t_star"] == first["breakpoint_t_star"] == 10
    assert sorted(p.name for p in out.iterdir()) == [
        "quality.csv", "resolved.config", "success.csv", "summary.json", "threshold.txt",
    ]


def test_degenerate_clustering_is_methodology_error(tmp_path, capsys):
    # identical users: the two centroids coincide and quality is undefined
    rows = []
    for _ in range(6):
        cells = ["99"] * 100
        for i in range(55):
            cells[i] = "1.5"
        rows.append(",".join(["55"] + cells))
    data = tmp_path / "flat.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main([
        "pipeline", "--dataset", "jester", "--input", str(data),
        "--k-coeff", "3", "--min-ratings", "50", "--sample", "6",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_METHODOLOGY
    assert "methodology error" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(jester_file, tmp_path, capsys, monkeypatch):
    flags = [
        "--dataset", "jester", "--input", str(jester_file), "--k-coeff", "10",
        "--min-ratings", "50", "--sample", "20", "--out", str(tmp_path / "o"),
    ]
    assert main(["fit", *flags]) == EXIT_OK

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli.xp, "success_curve", boom)
    assert main(["curves", *flags]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: wires crossed" in err


def test_curves_call_each_curve_with_its_users_third(ml_file, tmp_path, monkeypatch):
    # The benchmark's traced run wraps these functions by name and reads the
    # users from their third positional argument.
    calls = []

    def recorded(name, real):
        def call(*args, **kwargs):
            calls.append((name, np.asarray(args[2]).tolist()))
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(cli.xp, "success_curve", recorded("success", xp.success_curve))
    monkeypatch.setattr(cli.xp, "quality_curve", recorded("quality", xp.quality_curve))
    out = tmp_path / "o"
    flags = [
        "--dataset", "movielens", "--input", str(ml_file), "--k-coeff", "10",
        "--min-ratings", "6", "--sample", "10", "--t-max", "12", "--seed", "0", "--out", str(out),
    ]
    assert main(["fit", *flags]) == EXIT_OK
    assert main(["curves", *flags]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert [name for name, _ in calls] == ["success", "quality", "success"]
    sample, min_cohort = calls[0][1], calls[2][1]
    assert len(sample) == summary["curve_users"] == 10
    assert calls[1][1] == sample
    assert min_cohort == list(range(10))  # the users holding exactly the 5-rating minimum
    assert summary["min_cohort_count"] == 10


def test_unexpected_exception_in_fit_is_internal_error(jester_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.km, "fit", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
    rc = main([
        "fit", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_INTERNAL
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags",
    [
        ("", ["--min-ratings", "61"]),
        ("eval_holdout = 60", ["--min-ratings", "50", "--coeffs", "10"]),
    ],
    ids=["no-curve-users", "no-sweep-users"],
)
def test_pipeline_with_empty_cohort_writes_nothing(config, flags, jester_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    rc = main([
        "pipeline", "--config", str(cfg), "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--out", str(tmp_path / "o"), *flags,
    ])
    assert rc == EXIT_USAGE
    assert ">= 61 ratings" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("fit", "kmeans_restarts = 0"),
        ("sweep", "eval_holdout = 0"),
        ("fit", "sample = 0"),
        ("fit", "seed = -1"),
        ("pipeline", "coeffs = 0,10"),
        ("pipeline", "ordering = by_timestamp"),  # a Jester matrix has no timestamps
    ],
)
def test_bad_config_value_writes_nothing(command, line, jester_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = [
        command, "--config", str(cfg), "--dataset", "jester", "--input", str(jester_file),
        "--out", str(tmp_path / "o"),
    ]
    if command == "sweep":
        argv += ["--coeffs", "10"]
    assert main(argv) == EXIT_USAGE
    assert not (tmp_path / "o").exists()
    key = line.split(" = ")[0]  # the message names the key the user wrote, not a field
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


def test_resolved_config_regenerates_the_run(jester_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kmeans_conv_tol = 1e-4\neval_relevance_threshold = 2.5\n"
        "ordering = by_item_index\nbreakpoint_method = kneedle\n"
    )
    out = tmp_path / "o"
    argv = [
        "pipeline", "--config", str(cfg), "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--coeffs", "10,30", "--sample", "20", "--t-max", "80",
        "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"}
    saved = tmp_path / "saved.config"
    shutil.copy(out / "resolved.config", saved)
    shutil.rmtree(out)

    rerun = ["pipeline", "--config", str(saved)]
    parser = cli._build_parser()
    resolved = cli.resolve_config(parser.parse_args(rerun))
    assert resolved == cli.resolve_config(parser.parse_args(argv))
    assert main(rerun) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"} == first


def test_curves_before_fit_tells_user_to_fit(jester_file, tmp_path, capsys):
    rc = main([
        "curves", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == EXIT_USAGE
    assert "fit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest"],
        ["fit"],
        ["sweep", "--coeffs", "10,20"],
        ["curves"],
        ["threshold"],
        ["pipeline"],
    ],
)
def test_missing_input_leaves_no_output_dir(argv, tmp_path):
    out = tmp_path / "o"
    argv = [*argv, "--dataset", "jester", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert not out.exists()


# ---------------------------------------------------------------- console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_entry_point(name):
    """The ``module:attr`` that ``[project.scripts]`` in pyproject.toml gives ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        table, section = {}, None
        for raw in PYPROJECT.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and "=" in line:
                key, _, value = line.partition("=")
                table[key.strip().strip("\"'")] = value.strip().strip("\"'")
        return table[name]
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def _console_script_commands():
    """Ways to run ``coldstart``: the declared entry point, and any installed script.

    The first runs the entry point through the body of the wrapper that an
    installer generates, so no install is needed; the second is the script
    an installer left on PATH, if there is one.
    """
    module, _, attr = _declared_entry_point("coldstart").partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("coldstart")
    if installed:
        commands.append([installed])
    return commands


def test_console_script_help_and_exit_codes(tmp_path):
    env = child_env()
    for script in _console_script_commands():
        res = subprocess.run(
            [*script, "--help"], capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=env,
        )
        assert res.returncode == 0
        assert "pipeline" in res.stdout
        res = subprocess.run(
            [*script, "fit", "--dataset", "jester"],
            capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=env,
        )
        assert res.returncode == EXIT_USAGE
        assert not (tmp_path / "coldstart_out").exists()


def test_package_root_imports_no_module():
    # The root exports nothing, so `import coldstart` loads neither a submodule nor numpy.
    script = (
        "import sys, coldstart\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'coldstart'), 'numpy' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['coldstart'] False"


def test_cli_import_leaves_scipy_spatial_unloaded():
    # Only Davies-Bouldin needs cdist, so ingest and threshold never pay for its import.
    res = subprocess.run(
        [sys.executable, "-c", "import sys, coldstart.cli; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _loaded_scipy_modules(tmp_path, *argvs):
    """Run each argv through ``cli.main`` in one child process; its exit codes and scipy modules."""
    script = (
        "import json, sys\n"
        "from coldstart import cli\n"
        f"codes = [cli.main(a) for a in {[list(a) for a in argvs]!r}]\n"
        "mods = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([codes, mods]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_ingest_and_threshold_load_no_scipy(jester_file, tmp_path):
    out = tmp_path / "o"
    _write_curves(out, -1.0)
    flags = ["--dataset", "jester", "--out", str(out)]
    codes, mods = _loaded_scipy_modules(
        tmp_path, ["ingest", "--input", str(jester_file), *flags], ["threshold", *flags]
    )
    assert codes == [EXIT_OK, EXIT_OK]
    assert (out / "canonical.csv").exists() and (out / "threshold.txt").exists()
    assert mods == []


def test_dense_kernel_pipeline_and_curves_load_no_scipy(jester_file, tmp_path):
    # The Jester fixture is 60 % filled, so k-means takes the dense kernel.
    flags = [
        "--dataset", "jester", "--input", str(jester_file), "--k-coeff", "10",
        "--min-ratings", "50", "--sample", "20", "--t-max", "80", "--out", str(tmp_path / "o"),
    ]
    codes, mods = _loaded_scipy_modules(tmp_path, ["pipeline", *flags])
    assert codes == [EXIT_OK]
    assert mods == []
    codes, mods = _loaded_scipy_modules(tmp_path, ["curves", *flags])
    assert codes == [EXIT_OK]
    assert mods == []


def test_csr_kernel_pipeline_loads_scipy_sparse_only(tmp_path):
    data = tmp_path / "ratings.dat"
    _write_movielens(data, n_items=300)  # about 3 % filled: the CSR kernel
    codes, mods = _loaded_scipy_modules(tmp_path, [
        "pipeline", "--dataset", "movielens", "--input", str(data), "--k-coeff", "10",
        "--coeffs", "10,20", "--min-ratings", "6", "--sample", "10", "--t-max", "12",
        "--out", str(tmp_path / "o"),
    ])
    assert codes == [EXIT_OK]
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["kmeans_kernel"] == "csr"
    assert "scipy.sparse" in mods  # the CSR kernel and the sweep build CSR matrices
    assert not [m for m in mods if m.startswith(("scipy.spatial", "scipy.optimize"))]


def test_csr_kernel_curves_load_no_scipy_while_fits_labels_match(tmp_path):
    data = tmp_path / "ratings.dat"
    _write_movielens(data, n_items=300)  # about 3 % filled: the CSR kernel
    out = tmp_path / "o"
    flags = ["--input", str(data), "--out", str(out), *ML_FLAGS]
    assert main(["ingest", *flags]) == EXIT_OK
    assert main(["fit", *flags]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["kmeans_kernel"] == "csr"
    codes, mods = _loaded_scipy_modules(tmp_path, ["curves", *flags])
    assert codes == [EXIT_OK]
    assert mods == []
    # Without the labels, `curves` reassigns every user with the CSR kernel.
    (out / cli.LABELS_FILE).unlink()
    codes, mods = _loaded_scipy_modules(tmp_path, ["curves", *flags])
    assert codes == [EXIT_OK]
    assert "scipy.sparse" in mods


def test_module_invocation_matches_script():
    res = subprocess.run(
        [sys.executable, "-m", "coldstart.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert res.returncode == 0
    assert "threshold" in res.stdout
