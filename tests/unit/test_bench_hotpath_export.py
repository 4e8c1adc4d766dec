"""The hot-path microbenchmark's export into ``BENCH_hotpath.json``."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks" / "bench_micro_hotpath.py"


def load_export():
    spec = importlib.util.spec_from_file_location("_bench_hotpath", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.export


def test_partial_export_keeps_the_other_entries(tmp_path):
    export = load_export()
    path = tmp_path / "BENCH_hotpath.json"
    path.write_text(json.dumps({
        "n_pages": 1,
        "benchmarks": {"kept": {"seconds": 1.0}, "rerun": {"seconds": 2.0}},
        "cluster": {"rps": 3},
    }))
    export(path, {"n_pages": 2, "benchmarks": {"rerun": {"seconds": 0.5}}})
    assert json.loads(path.read_text()) == {
        "n_pages": 2,
        "benchmarks": {"kept": {"seconds": 1.0}, "rerun": {"seconds": 0.5}},
        "cluster": {"rps": 3},
    }


def test_export_creates_the_file(tmp_path):
    path = tmp_path / "BENCH_hotpath.json"
    load_export()(path, {"benchmarks": {"new": {"seconds": 1.0}}})
    assert json.loads(path.read_text()) == {
        "benchmarks": {"new": {"seconds": 1.0}}
    }
