"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, record_sizes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_smoke_checks_every_output_and_nothing_fails(smoke):
    report, result = smoke
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    fail_lines = [line.split() for line in report if line.split()[:1] == ["fail_ratio"]]
    assert len(fail_lines) == 2 * len(WORKLOADS)
    assert all(float(words[2]) == 0.0 and words[3] == "ratio" for words in fail_lines)


@pytest.mark.parametrize("kind,section", [("e2e", "end_to_end"), ("trace", "per_layer")])
def test_smoke_reports_every_named_metric_with_its_unit(smoke, kind, section):
    report, result = smoke
    printed = {tuple(line.split()[i] for i in (0, 3)) for line in report
               if len(line.split()) == 4 and line.split()[1] == "="}
    for workload in SPEC["workloads"]:
        prefix = f"{workload['name']}/{kind}/"
        reported = {key[len(prefix):]: m for key, m in result["metrics"].items()
                    if key.startswith(prefix)}
        assert set(reported) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert reported[metric["name"]]["unit"] == metric["unit"]
            assert (metric["name"], metric["unit"]) in printed


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_workloads_follow_the_seed_and_keep_their_shape():
    for workload in WORKLOADS.values():
        first = next(workload.groups(7))
        assert first == next(workload.groups(7))
        other = next(workload.groups(8))
        assert other != first
        assert sorted(map(len, other)) == sorted(map(len, first))
    pages = next(WORKLOADS["byte-sparse"].groups(3))
    params = WORKLOADS["byte-sparse"].params
    assert {len(page) for page in pages} == {params["page_bytes"]}
    assert sum(not any(page) for page in pages) == params["zero_pages_per_group"]
    sizes = record_sizes(16, 4096, 64)
    assert sum(size <= 64 for size in sizes) == 16  # a quarter on the Pascal path


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "byte-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
