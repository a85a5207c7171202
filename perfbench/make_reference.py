"""Rewrite reference.json from the current program: the default-seed panel
0 of every workload, run through the same CLI commands as the benchmark.

Run it only when a change is meant to alter results:
    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json

import worker


def main():
    mods = worker.load_modules()
    reference = {}
    for name, workload in worker.WORKLOADS.items():
        records = worker.run_ops(mods["cli"], worker.reference_ops(workload), None)
        reference[name] = {r.op.method: worker.reference_entry(r.doc, r.op.method) for r in records}
    (worker.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
