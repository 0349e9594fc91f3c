"""Seconds-long smoke test of the benchmark itself.

Runs every workload at toy size (256 px field, 10 vehicles, one simulation
or series per unit) with tracing off and on, and checks that the result
line carries every metric BENCHMARK.json declares, with its unit, and that
the toy outputs match their recorded reference.  Also checks that the
benchmark refuses to report a result where the library source is missing.

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_emitted_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "3",
                        "--seconds", "1", "--trace", trace, "--toy")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload["name"], trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_without_library_source():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_metric_emitted_with_its_unit()
    test_refuses_without_library_source()
    print("ok")
