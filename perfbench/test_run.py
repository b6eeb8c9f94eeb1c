"""Self-test of the benchmark on a shortened scenario.

    python3 -m pytest perfbench -q

Each workload, including paper-optics, which BENCHMARK.json leaves out,
runs once untraced and once traced on a 20 s scenario.
The tests check that the result line carries every metric that
``BENCHMARK.json`` names, with its unit, and that the correctness
checks run: a tampered output digest must be reported as incorrect,
and a directory without the program's sources must be refused.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = ["--seed", "7", "--seconds", "0", "--scenario-seconds", "20"]


def run_bench(workload, trace, cwd=ROOT, bench=BENCH_DIR):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--trace", str(trace), *SHORT],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_names_every_metric_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    report = json.loads((BENCH_DIR / "out" /
                         f"report-{workload}-trace{trace}.json").read_text())
    steps = report["passes"] + (1 if trace else 3)
    assert len(report["step_scales"]) == steps
    assert all(s > 0 for s in report["step_scales"])
    if not trace:
        rtf = result["metrics"]["realtime_factor"]["value"]
        scale = report["pass_scale"][0]
        assert rtf == pytest.approx(
            report["unscaled_metrics"]["realtime_factor"] / scale)


def test_digest_mismatch_is_reported():
    workload = SPEC["workloads"][0]["name"]
    assert result_of(run_bench(workload, 0))["correct"] is True
    store = BENCH_DIR / "out" / "digests.json"
    saved = store.read_text()
    digests = json.loads(saved)
    tampered = {k: ("0" * 64 if k.startswith(workload + "|")
                    and "duration=20.0" in k else v)
                for k, v in digests.items()}
    assert tampered != digests
    try:
        store.write_text(json.dumps(tampered))
        proc = run_bench(workload, 0)
    finally:
        store.write_text(saved)
    assert result_of(proc)["correct"] is False
    assert "digest" in proc.stderr


def test_refuses_without_program_sources():
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH_DIR / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare,
                         bench=bare / "perfbench")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
