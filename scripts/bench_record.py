#!/usr/bin/env python3
"""Record one benchmark run of this checkout as BENCH_<n>.json at its root.

    python3 scripts/bench_record.py --n N [--tier1]

Runs perfbench/run.py --workload all, with perfbench's own seed and loop
length, in a subprocess, and reads the metrics of its last line, a JSON
summary, and the provenance line it prints per workload: the git SHA,
whether tracked files differ from it, perfbench's digest of the sources,
nproc, numpy, the OpenBLAS thread count, the seed and the seconds.  Adds the
CPU model, the OpenBLAS kernel in use, the line count of src/ and, with
--tier1, the Tier-1 suite's passed and failed counts, exit code and wall
time.  Writes BENCH_<n>.json, then prints each metric's change against the
highest-numbered file below n beside its BENCHMARK.json bound, and flags a
previous file recorded on another CPU, kernel or nproc, or with another
perfbench seed or loop length.  One run per side is noisy: a speed claim
rests on scripts/bench_pairs.py, and these files are the trajectory.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (block, key) pairs: a previous file differing in one is flagged
FLAGGED = (("host", "cpu"), ("host", "blas_core"), ("host", "nproc"),
           ("perfbench", "seed"), ("perfbench", "seconds"))
PROVENANCE = "provenance: "  # perfbench's line per workload


def blas_core() -> str | None:
    """The OpenBLAS kernel this process runs, e.g. "SkylakeX": the CPU's, or
    the one OPENBLAS_CORETYPE names; None without numpy's bundled
    scipy-openblas or its corename symbol."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_char_p, []
            return fn().decode()
    return None


def cpu_model() -> str:
    """The machine and the CPU's model name."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    except OSError:
        names = []
    return f"{platform.machine()} {names[0] if names else platform.processor()}"


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def perfbench(root: str) -> tuple[dict, dict]:
    """The last line of perfbench/run.py --workload all, parsed, and the
    first workload's provenance line."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"perfbench exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next((json.loads(ln[len(PROVENANCE):]) for ln in lines
                       if ln.startswith(PROVENANCE)), {})
    return json.loads(lines[-1]), provenance


def tier1(root: str) -> dict:
    """The Tier-1 suite's counts, exit code and wall time; counts of 0 where
    pytest printed no summary line."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)s?\b",
                                                       lines[-1] if lines else "")}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "exit_code": proc.returncode, "wall_s": round(wall, 1)}


def recorded(root: str) -> dict[int, str]:
    """Each BENCH_<n>.json at root, by n."""
    found = {}
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if m:
            found[int(m.group(1))] = path
    return found


def compare(prev: dict, doc: dict, bounds: dict) -> list[str]:
    """Lines comparing doc with the previous record: a flag for each FLAGGED
    key that differs, then each metric both hold, with its relative change
    and its bound from BENCHMARK.json, named by the part after the workload."""
    lines = [f"FLAG: {block}.{key} differs: {prev[block].get(key)!r} then, "
             f"{doc[block].get(key)!r} now"
             for block, key in FLAGGED if prev[block].get(key) != doc[block].get(key)]
    for name, metric in doc["metrics"].items():
        if name not in prev["metrics"]:
            continue
        old, new = prev["metrics"][name]["value"], metric["value"]
        line = f"  {name:<22} {old:.6g} -> {new:.6g} {metric['unit']}"
        bound = bounds.get(name.rsplit(".", 1)[-1])
        if not old:
            lines.append(line + " (previous 0)")
            continue
        rel = (new - old) / old
        line += f" ({rel:+.1%})"
        if bound is not None:
            worse = rel > bound["bound"] if bound["better"] == "lower" else rel < -bound["bound"]
            line += f"; bound {bound['bound']:.0%}" + ("; WORSE PAST THE BOUND" if worse else "")
        lines.append(line)
    return lines


def record(root: str, n: int, with_tier1: bool) -> None:
    """Run the benchmark (and the Tier-1 suite) in the checkout at root, write
    root/BENCH_<n>.json and print its comparison with the previous file."""
    summary, prov = perfbench(root)
    doc = {
        "n": n,
        "git_sha": prov.get("git_sha"),
        "git_dirty": prov.get("git_dirty"),
        "src_sha256": prov.get("src_sha256"),  # names the sources of a dirty tree
        "host": {"cpu": cpu_model(), "nproc": prov.get("nproc"), "numpy": prov.get("numpy"),
                 "blas_core": blas_core(), "blas_threads": prov.get("blas", {}).get("threads")},
        "src_lines": src_lines(root),
        "perfbench": {"seed": prov.get("workload_seed"), "seconds": prov.get("seconds"),
                      **{k: summary[k] for k in ("correct", "attempted", "failed")}},
        "metrics": summary["metrics"],
    }
    if with_tier1:
        doc["tier1"] = tier1(root)
    path = os.path.join(root, f"BENCH_{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: correct {summary['correct']}, {summary['failed']} of "
          f"{summary['attempted']} results failed, src/ {doc['src_lines']} lines")

    earlier = [k for k in recorded(root) if k < n]
    if not earlier:
        print("no earlier BENCH_*.json to compare with")
        return
    with open(os.path.join(root, f"BENCH_{max(earlier)}.json"), encoding="utf-8") as fh:
        prev = json.load(fh)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    print(f"against BENCH_{max(earlier)}.json (one run each: a trajectory, not a claim)")
    print("\n".join(compare(prev, doc, bounds)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="the file's number: the PR's")
    ap.add_argument("--tier1", action="store_true", help="also run the Tier-1 suite")
    args = ap.parse_args()
    record(ROOT, args.n, args.tier1)


if __name__ == "__main__":
    main()
