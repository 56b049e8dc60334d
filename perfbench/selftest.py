"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. With the default seeds, the benchmark's corpus generators write files
   byte-identical to those of the acceptance-test generators, which are
   imported read-only from ``tests/test_acceptance.py``.
2. ``BENCHMARK.json`` lists exactly the workloads and metrics the code
   reports, with the same units and directions.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402


def check_corpora(scratch: Path) -> list[str]:
    errors = []
    pairs = (
        (test_acceptance._gen_jester_corpus, corpus.gen_jester, "jester.csv"),
        (test_acceptance._gen_movielens_corpus, corpus.gen_movielens, "movielens.dat"),
    )
    for reference, ours, name in pairs:
        want, got = scratch / f"acceptance-{name}", scratch / f"bench-{name}"
        reference(want)
        ours(got)
        if want.read_bytes() != got.read_bytes():
            errors.append(f"{name}: benchmark generator differs from the acceptance generator")
    return errors


def check_manifest(manifest: dict) -> list[str]:
    errors = []
    want_workloads = [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    if manifest["workloads"] != want_workloads:
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, metrics in (
        ("end_to_end", END_TO_END),
        ("per_layer", [m for m in tracing.LAYER_METRICS if m.only is None]),
    ):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        reported = [(m.name, m.unit, m.better) for m in metrics]
        if listed != reported:
            errors.append(f"BENCHMARK.json {key} differs from what the code reports")
    return errors


def main() -> int:
    scratch = ROOT / ".perfbench" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_corpora(scratch) + check_manifest(manifest)
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
