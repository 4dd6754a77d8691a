#!/usr/bin/env python3
"""Benchmark harness for taskaffinity.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Runs one workload (`rank`, `ablation`, `theorem1`) in this process, closed
loop with one caller, for `--seconds`, checks every result against
`perfbench/reference.json`, and prints the end-to-end metrics (`--trace 0`)
or the per-layer metrics from a traced run (`--trace 1`).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs each workload in its own process and prints one table.
End-to-end times are normalised to a reference host speed (speed.py); the
wall-clock figures are printed beside them.  See perfbench/README.md for
what each metric means.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# ROADMAP Baseline, `fewshot` on configs/fewshot.json (2 cores, OpenBLAS, Python 3.11)
BASELINE_PHASES = {"whole_train_s": 0.07, "rank_s": 1.23, "finetune_s": 1.28, "eval_s": 0.09}

END_TO_END_UNITS = {"setup_s": "s", "result_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    """Import the package from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "taskaffinity", "__init__.py")):
        raise BenchError(f"no taskaffinity sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        from taskaffinity import cli, fisher, matching, nnet, pipeline, tasks, theorem
    except ImportError as exc:
        raise BenchError(f"cannot import taskaffinity: {exc}") from None
    if not os.path.abspath(pipeline.__file__).startswith(SRC + os.sep):
        raise BenchError(f"taskaffinity was imported from {pipeline.__file__}, not {SRC}")
    return {"cli": cli, "pipeline": pipeline, "nnet": nnet, "fisher": fisher,
            "matching": matching, "tasks": tasks, "theorem": theorem}


def load_reference(path: str = REFERENCE) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read the reference outputs: {exc}") from None


def visit_order(wl, workload_seed: int) -> list:
    """The pool, permuted by the workload seed; result i runs entry i mod len(pool)."""
    import numpy as np
    from taskaffinity.seeding import derive_seed

    perm = np.random.default_rng(derive_seed(workload_seed, 0)).permutation(len(wl.pool))
    return [wl.pool[int(j)] for j in perm]


def run_results(wl, keys, reference: dict, seconds: float, workdir: str, tracer=None,
                count=None, first=0):
    """Closed loop: run results for `seconds` (at least one), or exactly `count`
    results.  A result is started only while it is expected to end no later
    than half a result past the deadline, so a loop lasts `seconds` on
    average.  Result i runs keys[(first + i) % len(keys)].  Returns
    per-result records and the loop's wall time."""
    records = []
    t_start = time.perf_counter()
    i = first
    while True:
        key = keys[i % len(keys)]
        out_dir = os.path.join(workdir, f"r{i}")
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.result_id = i
        t0 = time.perf_counter()
        try:
            raw = wl.run(key, out_dir)
            dt = time.perf_counter() - t0
            out = wl.output(raw)
            errors = wl.check(out, reference[str(key)])
        except Exception as exc:  # a failed result is counted, never fatal
            dt = time.perf_counter() - t0
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.result_id = -1
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append({"index": i, "key": key, "seconds": dt, "window": (t0, t0 + dt),
                        "errors": errors, "phases": (out or {}).get("phases")})
        i += 1
        if count is not None:
            if i - first >= count:
                break
        elif (time.perf_counter() - t_start
              + 0.5 * statistics.median(r["seconds"] for r in records) >= seconds):
            break
    return records, time.perf_counter() - t_start


def error_rate(records) -> float:
    return sum(1 for r in records if r["errors"]) / len(records)


def end_to_end(wl, records, wall: float, setup_samples, seconds_key="seconds") -> dict:
    """The end-to-end metrics, from result times under `seconds_key` and the
    loop's `wall` (both wall or both normalised)."""
    ok = [r for r in records if not r["errors"]]
    times = [r[seconds_key] for r in (ok or records)]
    return {
        "setup_s": statistics.median(setup_samples),
        "result_s": statistics.median(times),
        "items_per_s": wl.items_per_result * len(ok) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def setup_probe_samples(workload: str, n: int) -> list[tuple[float, float]]:
    """Set-up time of n fresh processes: script start to ready (imports,
    reference, warm-up), as each reports it, normalised and wall."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--probe-setup"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((float(doc["ready_s"]), float(doc["wall_s"])))
    return out


# ---------------------------------------------------------------------------
# provenance


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    info["threads"] = f"unknown (env {env})" if env else "unknown"
    return info


def _git(*args) -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "workload": workload,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# reporting


def _phase_line(records) -> str | None:
    phases = [r["phases"] for r in records if r["phases"]]
    if not phases:
        return None
    parts = []
    for key in phases[0]:
        med = statistics.median(p[key] for p in phases)
        base = BASELINE_PHASES.get(key)
        parts.append(f"{key} {med:.3f}" + (f" (Baseline {base:.2f})" if base is not None else ""))
    return "phase split, median per result: " + ", ".join(parts)


def _save_record(name: str, doc: dict) -> None:
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(os.path.join(RUN_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def run_untraced(wl, args, reference, workdir, probe, ready) -> tuple[dict, list]:
    probe.stop()
    setup = [ready] + setup_probe_samples(wl.name, SETUP_SAMPLES - 1)
    keys = visit_order(wl, args.seed)
    probe.start()
    t_loop = time.perf_counter()
    records, wall = run_results(wl, keys, reference[wl.name], args.seconds, workdir)
    loop_norm = probe.normalise(t_loop, t_loop + wall)
    probe.stop()
    for r in records:
        r["norm_seconds"] = probe.normalise(*r["window"])
    values = end_to_end(wl, records, loop_norm, [s[0] for s in setup], "norm_seconds")
    walls = end_to_end(wl, records, wall, [s[1] for s in setup])
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    n_ok = sum(1 for r in records if not r["errors"])
    print(f"setup_s samples: {', '.join(f'{s[0]:.4f}' for s in setup)}")
    print(f"{'metric':<14}{'value':>14}{'wall':>14}  unit")
    for name, m in metrics.items():
        print(f"{name:<14}{m['value']:>14.6g}{walls[name]:>14.6g}  {m['unit']}")
    print(f"{'error_rate':<14}{error_rate(records):>14.6g}{'':>14}  1  "
          f"({len(records) - n_ok} failed of {len(records)} results)")
    print(f"result_s is the median of {len(records)} results; an item is one {wl.item}, "
          f"{wl.items_per_result} per result; loop wall {wall:.3f} s, "
          f"{len(probe.duration)} speed samples; wall time is {wall / loop_norm:.3f} x "
          f"the normalised time")
    line = _phase_line(records)
    if line:
        print(line)
    return metrics, records


def run_traced(wl, args, reference, workdir, modules) -> tuple[dict, list]:
    from spans import Tracer
    from perlayer import health_check, per_layer

    keys = visit_order(wl, args.seed)
    refs = reference[wl.name]
    tracer = Tracer()

    def traced_run(fn, *fargs, **fkwargs):
        tracer.install(modules)
        try:
            return fn(*fargs, **fkwargs)
        finally:
            tracer.uninstall()

    # Each result runs untraced and traced back to back, which of the two goes
    # first alternating, so neither a drift in machine speed nor a second run
    # of the same input biases trace.overhead_frac.
    plain, traced, traced_wall = [], [], 0.0
    t_start = time.perf_counter()
    while True:
        i = len(plain)
        if i % 2:
            plain += run_results(wl, keys, refs, 0.0, workdir, count=1, first=i)[0]
        recs, wall = traced_run(run_results, wl, keys, refs, 0.0, workdir,
                                tracer=tracer, count=1, first=i)
        if not i % 2:
            plain += run_results(wl, keys, refs, 0.0, workdir, count=1, first=i)[0]
        traced += recs
        traced_wall += wall
        pair_s = statistics.median(p["seconds"] + t["seconds"] for p, t in zip(plain, traced))
        if time.perf_counter() - t_start + 0.5 * pair_s >= args.seconds:
            break
    health = traced_run(health_check, tracer, workdir) if wl.name == "rank" else None
    metrics, missing = per_layer(tracer, plain, traced, traced_wall)
    if missing:
        print("not in the package, so their metrics read 0: " + ", ".join(missing))
    records = plain + traced
    if health is not None:
        print(f"health check, configs/tas.json traced: {health['message']}")
        if health["errors"]:
            records.append({"index": "health", "key": None, "seconds": 0.0,
                            "errors": health["errors"], "phases": None})
    os.makedirs(RUN_DIR, exist_ok=True)
    spans_path = os.path.join(RUN_DIR, f"spans-{wl.name}-seed{args.seed}.npz")
    tracer.save(spans_path)
    print(f"{len(tracer.start)} spans over {len(traced)} traced results written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    for name, m in metrics.items():
        print(f"{name:<40}{m['value']:>16.6g}  {m['unit']}")
    return metrics, records


def run_one(args, probe) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    modules = load_package()
    reference = load_reference()
    if wl.name not in reference:
        raise BenchError(f"reference.json has no {wl.name} outputs")
    workdir = os.path.join(RUN_DIR, f"work-{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl.warm_up(workdir)
        t_ready = time.perf_counter()
        ready = (probe.normalise(T0, t_ready), t_ready - T0) if probe else None
        if args.probe_setup:
            print(json.dumps({"ready_s": ready[0], "wall_s": ready[1]}))
            return 0
        prov = provenance(wl.name, args.seed, args.seconds, bool(args.trace))
        print("provenance: " + json.dumps(prov, sort_keys=True))
        if args.trace:
            metrics, records = run_traced(wl, args, reference, workdir, modules)
        else:
            metrics, records = run_untraced(wl, args, reference, workdir, probe, ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in records if r["errors"]]
    for r in failed[:5]:
        print(f"FAILED result {r['index']} (pool entry {r['key']}): {'; '.join(r['errors'])}")
    summary = {"correct": not failed, "attempted": len(records), "failed": len(failed),
               "metrics": metrics}
    _save_record(f"{wl.name}-seed{args.seed}-trace{int(bool(args.trace))}.json",
                 {"provenance": prov, "records": records, **summary})
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every end-to-end metric."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
        rows.append((name, res))
    print("== summary")
    names = list(rows[0][1]["metrics"])
    print(f"{'workload':<10}" + "".join(f"{n:>16}" for n in names) + f"{'error_rate':>16}")
    print(f"{'(unit)':<10}" + "".join(f"{rows[0][1]['metrics'][n]['unit']:>16}" for n in names)
          + f"{'1':>16}")
    for name, res in rows:
        print(f"{name:<10}" + "".join(f"{res['metrics'][n]['value']:>16.6g}" for n in names)
              + f"{res['failed'] / res['attempted']:>16.6g}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed: the order the pool is run in")
    ap.add_argument("--seconds", type=float, default=36.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    probe = None
    try:
        if args.workload == "all":
            return run_all(args)
        if not args.trace:
            from speed import SpeedProbe

            probe = SpeedProbe()
            probe.start()
        return run_one(args, probe)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.stop()


if __name__ == "__main__":
    sys.exit(main())
