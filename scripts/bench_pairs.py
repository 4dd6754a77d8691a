#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, a parent and a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload rank \\
        --pairs 10 --seconds 36 --seed 7

Runs perfbench/run.py in each checkout in turn, --pairs times, alternating
which side goes first, each checkout with its own benchmark code and its own
sources.  For every end-to-end metric it prints each side's runs, median and
quartiles, how many pairs the change won, and the change's median relative
to the parent's beside the metric's bound from BENCHMARK.json.  Then, for
each phase that every run reports in its "phase split" line (wall seconds,
the run's median per result), it prints both sides' medians over the runs,
the change's relative median and how many pairs it won, in the order the
line names them.  Last, the same for each run's minor page faults and
system CPU seconds, in all and per result attempted, from
resource.getrusage(RUSAGE_CHILDREN) before and after the perfbench process,
so they include its set-up probes and imports.  A gain is claimed only
when at least ten pairs ran, the change won at least nine tenths of them,
ties counting for neither side, and the medians differ by more than the
distance between the parent's quartiles.  The script itself writes no file.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

import numpy as np

PHASE_LINE = "phase split, median per result: "
CLAIM_SHARE = 0.9  # share of the pairs the change must win
MIN_PAIRS = 10  # fewer pairs support no claim


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's paired runs: parent[i] and change[i] ran as pair i, and
    better is "lower" or "higher".  Returns each side's (q1, median, q3),
    the pairs the change won, whether they support a claimed gain, and the
    change's median relative to the parent's, (change - parent) / parent,
    None when the parent's median is 0."""
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same nonzero number of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q = tuple(np.percentile(parent, [25, 50, 75]).tolist())
    c_q = tuple(np.percentile(change, [25, 50, 75]).tolist())
    claim = (len(parent) >= MIN_PAIRS and wins >= CLAIM_SHARE * len(parent)
             and sign * (p_q[1] - c_q[1]) > p_q[2] - p_q[0])
    rel = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else None
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent), "claim": claim,
            "rel_change": rel}


def phase_split(stdout: str) -> dict[str, float]:
    """Each phase's seconds from a perfbench run's phase split line, in the
    line's order, whose parts read "name seconds" or "name seconds (Baseline
    b)"; {} without one."""
    for line in stdout.splitlines():
        if line.startswith(PHASE_LINE):
            parts = (part.split() for part in line[len(PHASE_LINE):].split(", "))
            return {words[0]: float(words[1]) for words in parts}
    return {}


def phase_report(parent: list[dict], change: list[dict], formats: dict | None = None) -> list[str]:
    """One line per name of formats that every paired run reports, lower
    being better: both sides' medians, each shown by the name's format, the
    change's relative median and the pairs it won.  formats defaults to every
    name the runs report, in seconds, in the order they first appear."""
    names = (name for run in parent + change for name in run)
    lines = []
    for name, fmt in (formats or dict.fromkeys(names, "{:.4g} s")).items():
        if not all(name in run for run in parent + change):
            continue
        s = summarize([run[name] for run in parent], [run[name] for run in change], "lower")
        rel = "n/a" if s["rel_change"] is None else f"{s['rel_change']:+.1%}"
        lines.append(f"  {name:<14} parent {fmt.format(s['parent'][1])}, change "
                     f"{fmt.format(s['change'][1])} ({rel}); change better in {s['wins']} of "
                     f"{s['pairs']} pairs")
    return lines


USAGE = {"minor_faults": "{:.0f}", "faults/result": "{:.0f}", "system_s": "{:.3g} s",
         "sys_s/result": "{:.3g} s"}


def usage(before, after, results: int) -> dict[str, float]:
    """A perfbench run's minor page faults and system CPU seconds, from the
    getrusage(RUSAGE_CHILDREN) readings before and after it, in all and per
    result of the results it attempted."""
    faults, system_s = after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime
    return {"minor_faults": faults, "faults/result": faults / results,
            "system_s": system_s, "sys_s/result": system_s / results}


def run_side(checkout: str, args) -> tuple[dict, dict, dict]:
    """One perfbench run in checkout: the metrics of its closing summary line,
    its phase split and its usage."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if not summary["correct"]:
        sys.exit(f"{checkout}: {summary['failed']} of {summary['attempted']} results failed")
    return summary["metrics"], phase_split(proc.stdout), usage(before, after, summary["attempted"])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="perfbench workload name")
    ap.add_argument("--pairs", type=int, default=10, help="parent/change pairs to run")
    ap.add_argument("--seconds", type=float, default=36.0, help="perfbench --seconds")
    ap.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs, phases, usages = ({"parent": [], "change": []} for _ in range(3))
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, split, used = run_side(getattr(args, side), args)
            runs[side].append(metrics)
            phases[side].append(split)
            usages[side].append(used)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", flush=True)

    print(f"{args.workload}, {args.pairs} pairs, --seconds {args.seconds}, --seed {args.seed}")
    for name, metric in end_to_end.items():
        direction = metric["better"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        s = summarize(parent, change, direction)
        unit = runs["parent"][0][name]["unit"]
        print(f"{name} ({unit}, {direction} is better)")
        for side, values in (("parent", parent), ("change", change)):
            q1, med, q3 = s[side]
            print(f"  {side:<7} median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}); runs "
                  + " ".join(f"{v:.6g}" for v in values))
        print(f"  change better in {s['wins']} of {s['pairs']} pairs; "
              f"{'gain supported' if s['claim'] else 'no gain claimed'}")
        rel, bound = s["rel_change"], metric["bound"]
        if rel is None:
            print(f"  median change n/a (parent median 0); bound {bound:.0%}")
        else:
            worse = rel > bound if direction == "lower" else rel < -bound
            print(f"  median change {rel:+.1%} vs parent; bound {bound:.0%}"
                  + ("; WORSE PAST THE BOUND" if worse else ""))
    lines = phase_report(phases["parent"], phases["change"])
    if lines:
        print("phase split (wall s, lower is better)")
        print("\n".join(lines))
    print("usage per run (getrusage of the perfbench process, lower is better)")
    print("\n".join(phase_report(usages["parent"], usages["change"], USAGE)))


if __name__ == "__main__":
    main()
