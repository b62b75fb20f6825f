"""Checks of the benchmark itself at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_declared_metric(trace):
    proc = run_bench(ROOT, "--workload", "all", "--smoke", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for workload in SPEC["workloads"]:
        for metric in declared:
            emitted = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_refuses_without_lexfuse_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_inputs(tmp_path):
    base = {"workload": "statute", "input_sha256": "a" * 64, "metrics": {},
            "artifact_sha256": {}}
    paths = []
    for digest in ("a", "b"):
        path = tmp_path / f"{digest}.json"
        path.write_text(json.dumps(dict(base, input_sha256=digest * 64)))
        paths.append(str(path))
    proc = run_bench(ROOT, "--compare", *paths)
    assert proc.returncode != 0
    assert "inputs differ" in proc.stderr


def test_statute_inputs_depend_only_on_seed(tmp_path):
    sys.path.insert(0, str(BENCH))
    import run
    import statute
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        statute.generate(tmp_path / name, seed, 60, 30)
        digests.append(run.tree_digest(tmp_path / name))
    assert digests[0] == digests[1] != digests[2]
