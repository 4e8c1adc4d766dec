#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about half a minute).

    python3 perfbench/selftest.py

Run it from the repository root. It checks that

* an untraced and a traced run of a tiny simulation workload and a tiny
  serve workload emit exactly the metrics ``BENCHMARK.json`` names, each
  with the unit it declares, and pass their correctness checks;
* a corrupted expected fingerprint is counted as a failed operation;
* the benchmark refuses to run, without printing a result, in a
  directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

import functools
import json
import shutil
import subprocess
import sys
import tempfile

import run


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    units = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == units, (
        f"{what}: emitted {sorted(set(emitted) ^ set(units))} differ from "
        f"BENCHMARK.json, or a unit does"
    )
    assert result["correct"] and result["failed"] == 0, (what, result)
    assert result["attempted"] >= 1, (what, result)


def tiny_workloads() -> list:
    sim = run.Workload(
        "tiny-sim", ops=run.registry_ops(["fig4", "table1"], ("gh200", "upm"))
    )
    keys = run.serve_keys(("table1", "fig4"), ("gh200", "svm"))
    serve = run.Workload(
        "tiny-serve", keys=keys, stream=run.zipf_stream(keys, seed=7, n=24),
        connections=run.serve_connections(),
    )
    return [sim, serve]


def check_corrupted_fingerprint() -> None:
    ops = run.registry_ops(["table1"], ("gh200",))
    ops[0].digest = "0" * 64
    print("a corrupted expected fingerprint must be reported as FAILED:")
    metrics, attempted, failed, problems, _ = run.untraced_run(
        run.Workload("corrupt", ops=ops), 0, lambda: 1.0, probes=1
    )
    assert failed == attempted == 1 and problems, (failed, problems)
    result = run.report(metrics, attempted, failed, problems, [])
    assert result["correct"] is False, result


def check_refuses_without_program() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "oversub-4k", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    probe = functools.partial(run.setup_time, "serve-mix", 1)
    for workload in tiny_workloads():
        result = run.report(*run.untraced_run(workload, 0, probe, probes=2))
        check_metrics(result, spec["end_to_end"], f"{workload.name} untraced")
        result = run.report(*run.traced_run(workload))
        check_metrics(result, spec["per_layer"], f"{workload.name} traced")
    check_corrupted_fingerprint()
    check_refuses_without_program()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
