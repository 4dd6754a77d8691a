#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every result against.

    python3 perfbench/record_reference.py            # all workloads
    python3 perfbench/record_reference.py rank       # one workload

Runs every pool entry of each workload once, through the same code path as
the timed loop, and writes perfbench/reference.json.  Run it only at a
commit whose outputs are the ones later commits must reproduce.
"""

import json
import os
import shutil
import sys
import time

import run
from workloads import WORKLOADS

KEEP = {
    "rank": ("task_ids", "scores"),
    "ablation": ("task_ids", "scores", "accuracy", "label_sets"),
    "theorem1": ("passed", "final_gap_median"),
}


def record(wl, workdir: str) -> dict:
    wl.warm_up(workdir)
    refs = {}
    for key in wl.pool:
        out_dir = os.path.join(workdir, f"ref-{key}")
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        out = wl.output(wl.run(key, out_dir))
        shutil.rmtree(out_dir)
        refs[str(key)] = {k: out[k] for k in KEEP[wl.name]}
        print(f"{wl.name} pool entry {key}: {time.perf_counter() - t0:.2f} s", flush=True)
    return refs


def dumps(reference: dict) -> str:
    """JSON with one line per pool entry, so a re-recording diffs entry by entry."""
    blocks = []
    for name in sorted(reference):
        entries = reference[name]
        if name == "recorded_at":
            body = json.dumps(entries, sort_keys=True)
        else:
            rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                    for k, v in sorted(entries.items(), key=lambda kv: int(kv[0]))]
            body = "{\n" + ",\n".join(rows) + "\n }"
        blocks.append(f" {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    run.load_package()
    reference = run.load_reference() if os.path.exists(run.REFERENCE) else {}
    workdir = os.path.join(run.RUN_DIR, f"record-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            reference[name] = record(WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = run.provenance("record_reference", 0, 0.0, False)
    reference["recorded_at"] = {k: prov[k] for k in ("git_sha", "git_dirty", "src_sha256")}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(dumps(reference))
    print(f"wrote {os.path.relpath(run.REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
