#!/usr/bin/env python3
"""Record the expected result fingerprints of the benchmark workloads
that run outside the golden scale (``oversub-4k``, ``qv-oversub-full``).

    python3 perfbench/record_expected.py

Run it from the repository root after an intentional model change, the
same way ``repro-bench verify --update-golden`` refreshes the goldens.
Writes ``perfbench/expected/<workload>.json``: one full fingerprint per
``<exp_id>:<backend>``, so a mismatch can be diffed row by row.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from repro.bench.experiments import run_experiment
    from repro.check.golden import result_fingerprint

    run.EXPECTED.mkdir(exist_ok=True)
    for workload, pairs in run.FIXED_WORKLOADS.items():
        data = {}
        for exp_id, scale in pairs:
            fingerprint = result_fingerprint(run_experiment(exp_id, scale=scale))
            fingerprint["kwargs"] = {"scale": scale}
            data[f"{exp_id}:gh200"] = fingerprint
        path = run.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
