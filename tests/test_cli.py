import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coldstart
from coldstart import cli
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


def _write_movielens(path, seed=1):
    """40 users in three value tiers; 10 users hold the 5-rating minimum."""
    rng = np.random.default_rng(seed)
    tier_vals = [(1, 2), (3, 3), (4, 5)]
    lines = []
    for u in range(40):
        n = 5 if u < 10 else int(rng.integers(8, 13))
        items = rng.choice(30, size=n, replace=False)
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
    monkeypatch.undo()

    for stage in ("ingest", "fit", "sweep", "curves", "threshold"):
        assert main(argv(stage, tmp_path / "staged")) == EXIT_OK, stage
    written = [n for n in DETERMINISTIC if (tmp_path / "piped" / n).exists()]
    assert "sweep.csv" in written
    assert ("success_mincohort.csv" in written) == (dataset == "movielens")
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
        ("sample_size", -1),
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


def test_model_does_not_depend_on_openblas_thread_count(tmp_path):
    # 1,500 users x 66 rated of 100 items: the dense kernel, with products
    # large enough for OpenBLAS to split them when it may
    data = tmp_path / "jester.csv"
    _write_jester(data, n_users=1500, rated=66, seed=4)
    package_root = str(Path(coldstart.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
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


def test_threshold_without_curves_or_input_is_usage_error(tmp_path, capsys):
    rc = main(["threshold", "--dataset", "jester", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "curve" in capsys.readouterr().err.lower()


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
    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli.xp, "success_curve", boom)
    rc = main([
        "curves", "--dataset", "jester", "--input", str(jester_file),
        "--k-coeff", "10", "--min-ratings", "50", "--sample", "20",
        "--out", str(tmp_path / "o"),
    ])
    # curves needs a model on disk first
    assert rc in (EXIT_USAGE, EXIT_INTERNAL)


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
    [("fit", "kmeans_restarts = 0"), ("sweep", "eval_holdout = 0"), ("fit", "sample = 0")],
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
    package_root = str(Path(coldstart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
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


def test_cli_import_leaves_scipy_spatial_unloaded():
    # Only Davies-Bouldin needs cdist, so ingest and threshold never pay for its import.
    package_root = str(Path(coldstart.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", "import sys, coldstart.cli; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_module_invocation_matches_script():
    # pytest's `pythonpath` setting reaches this process only, not its children
    package_root = str(Path(coldstart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "coldstart.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert res.returncode == 0
    assert "threshold" in res.stdout
