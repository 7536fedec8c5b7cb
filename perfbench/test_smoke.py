"""Smoke tests of the benchmark itself: tiny corpora and one epoch.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the checkout
root. Every workload runs untraced and traced; each must report every
metric that ``BENCHMARK.json`` names, with its unit, and run its checks.
"""

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import run  # noqa: E402
import workloads  # noqa: E402

#: Checks each workload must run; the accuracy ones cannot pass at smoke size.
EXPECTED_CHECKS = {
    "c7-seed": {"loss_finite", "accuracy_above_chance", "deterministic",
                "gate_net_ge_supervised_plus_0.10", "gate_net_ge_flip_plus_0.03"},
    "netfm": {"loss_finite", "accuracy_above_chance", "deterministic"},
    "cli-5000": {"exit_0", "manifest_written", "loss_finite", "accuracy_above_chance",
                 "deterministic"},
}
SIZE_INDEPENDENT = ("loss_finite", "deterministic", "exit_0", "manifest_written")


def bench(script, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_workload_of_the_spec_exists():
    # netfm is runnable by hand but is not one of the spec's workloads
    assert {w["name"] for w in SPEC["workloads"]} | {"netfm"} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_reports_every_metric_and_runs_its_checks(workload, trace):
    proc = bench(BENCH / "run.py", workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]

    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}-smoke.json").read_text()
    )
    assert {"nproc", "python", "numpy", "blas_name", "blas_version", "blas_threads_pinned",
            "git_commit", "load_average_at_start"} <= set(record["machine"])
    ran = {check for op in record["ops"] for check in op["checks"]}
    assert EXPECTED_CHECKS[workload] <= ran
    for op in record["ops"]:
        assert op["error"] is None, op["error"]
        for check in SIZE_INDEPENDENT:
            assert op["checks"].get(check, True), (op["name"], check)
    if trace:
        assert 0.9 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0


def test_failed_check_or_exception_fails_the_operation():
    it = workloads.Iteration()
    it.run("first", lambda: 1, nullcontext)
    it.run("second", lambda: 1 / 0, nullcontext)
    it.run("third", lambda: 2, nullcontext)
    it.check("first", "accuracy_above_chance", False)
    assert [op.failed for op in it.ops] == [True, True, True]
    assert "ZeroDivisionError" in it.ops[1].error
    assert it.ops[2].error.startswith("skipped")


def test_changed_digest_fails_the_determinism_check(tmp_path):
    def iteration(digest):
        it = workloads.Iteration()
        it.run("train", lambda: None, nullcontext)
        it.digests["train:model.ckpt"] = digest
        return it

    first, same, changed = iteration("aa"), iteration("aa"), iteration("bb")
    run.DigestStore(tmp_path / "digests.json", "key").check(first)
    run.DigestStore(tmp_path / "digests.json", "key").check(same)
    run.DigestStore(tmp_path / "digests.json", "key").check(changed)
    assert not first.ops[0].failed and not same.ops[0].failed
    assert changed.ops[0].failed


def test_criterion_7_gates_are_applied():
    it = workloads.Iteration()
    for name in ("finetune-net", "finetune-flip", "supervised"):
        it.run(name, lambda: None, nullcontext)
    it.accuracy = {"net": 0.50, "flip": 0.48, "supervised": 0.30}
    workloads.apply_gates(it)
    checks = it.op("finetune-net").checks
    assert checks["gate_net_ge_supervised_plus_0.10"]
    assert not checks["gate_net_ge_flip_plus_0.03"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "perfbench" / "run.py", "c7-seed", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
