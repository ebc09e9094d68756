#!/usr/bin/env python3
"""Run the benchmark as interleaved parent/change pairs and summarize them.

    python3 scripts/bench_pairs.py PARENT CHANGE --first-seed 81 [--workload NAME ...]

PARENT and CHANGE are two source checkouts.  For each of ten seeds from
--first-seed on and every workload (or each one named by a repeated
--workload option, in BENCHMARK.json order), this runs the benchmark command of
CHANGE's BENCHMARK.json, with its `run_seconds`, once in each checkout,
alternating which side goes first, with PYTHONDONTWRITEBYTECODE=1 so that
neither checkout gains compiled bytecode.  It prints every pair, then for
each workload and end-to-end metric each side's median [Q1, Q3], the pairs
the change won (ties count for neither side), the bound check and whether
the gain rule holds: the change wins at least nine pairs in ten and its
median beats the parent's by more than the parent's interquartile range.
The bound check reads EXCEEDED when the change's median is worse than the
parent's by more than the metric's bound; otherwise `unresolved` when
either side's interquartile range is wider than the bound (both relative
to the parent's median), unless every change run beats every parent run;
and `ok` else.  Each workload's line of failures gives each side's failed
and attempted operations summed over the pairs, flagged FAILED MORE when
the change failed a larger share of its operations.  Nothing is written
into either checkout except the benchmark's own git-ignored perfbench/out/.
Python still reads bytecode compiled earlier, which moves `setup_s` and
`peak_rss_mb`, so a checkout holding a __pycache__ directory outside .git
is refused before the first run.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

PAIRS = 10  # the fewest pairs the gain rule accepts


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Verdicts for one metric from (parent, change) values, one pair per seed."""
    sign = 1 if better == "higher" else -1
    parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    gap = sign * (change[1] - parent[1])  # positive when the change is better
    allowed = bound * abs(parent[1])
    spread = max(parent[2] - parent[0], change[2] - change[0])
    dominates = min(sign * c for _, c in pairs) > max(sign * p for p, _ in pairs)
    if -gap > allowed:
        verdict = "EXCEEDED"
    elif spread > allowed and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"parent": parent, "change": change, "won": won, "pairs": len(pairs),
            "bound": verdict,
            "gain": len(pairs) >= PAIRS and won >= 0.9 * len(pairs)
                    and gap > parent[2] - parent[0]}


def failures(pairs: list[tuple[dict, dict]]) -> dict:
    """Each side's (failed, attempted) over all pairs of runs, and whether
    the change failed a larger share than the parent."""
    parent, change = ((sum(run[side]["failed"] for run in pairs),
                       sum(run[side]["attempted"] for run in pairs)) for side in (0, 1))
    shares = [failed / attempted if attempted else 0.0 for failed, attempted in (parent, change)]
    return {"parent": parent, "change": change, "more": shares[1] > shares[0]}


def bytecode_dirs(checkout: pathlib.Path) -> list[pathlib.Path]:
    """Every __pycache__ directory under checkout, outside .git."""
    found = []
    for root, dirs, _ in os.walk(checkout):
        if ".git" in dirs:
            dirs.remove(".git")
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            found.append(pathlib.Path(root) / "__pycache__")
    return sorted(found)


def run_once(checkout: pathlib.Path, bench: dict, workload: str, seed: int) -> dict:
    """One untraced benchmark run: its metric values, failures and rounds."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    saved = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return {**{k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "rounds": json.loads(saved.read_text())["rounds"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload; repeat for more (default: all)")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}")
    stale = bytecode_dirs(args.parent) + bytecode_dirs(args.change)
    if stale:
        sys.exit("compiled bytecode would skew setup_s and peak_rss_mb; remove "
                 + ", ".join(map(str, stale)))
    runs = {name: [] for name in names if not args.workload or name in args.workload}
    for i in range(PAIRS):
        seed = args.first_seed + i
        for w in runs:
            sides = [args.parent, args.change] if i % 2 == 0 else [args.change, args.parent]
            got = {side: run_once(side, bench, w, seed) for side in sides}
            pair = (got[args.parent], got[args.change])
            runs[w].append(pair)
            print(f"{w} seed {seed}: " + "; ".join(
                f"{m['name']} {pair[0][m['name']]:.4g} -> {pair[1][m['name']]:.4g}"
                for m in bench["end_to_end"])
                + f"; rounds {pair[0]['rounds']} -> {pair[1]['rounds']}"
                + f"; failed {pair[0]['failed']}/{pair[0]['attempted']} -> "
                  f"{pair[1]['failed']}/{pair[1]['attempted']}"
                + ("" if pair[0]["correct"] and pair[1]["correct"] else "; CHECK FAILED"),
                flush=True)
    for w, pairs in runs.items():
        for m in bench["end_to_end"]:
            s = summarize([(p[m["name"]], c[m["name"]]) for p, c in pairs], m["better"], m["bound"])
            print(f"{w} {m['name']}: parent {s['parent'][1]:.4g} [{s['parent'][0]:.4g}, "
                  f"{s['parent'][2]:.4g}] -> change {s['change'][1]:.4g} [{s['change'][0]:.4g}, "
                  f"{s['change'][2]:.4g}]; won {s['won']}/{s['pairs']}; "
                  f"bound {m['bound']:.0%} {s['bound']}; "
                  f"gain rule {'holds' if s['gain'] else 'does not hold'}")
        f = failures(pairs)
        print(f"{w} failed operations: parent {f['parent'][0]}/{f['parent'][1]} -> "
              f"change {f['change'][0]}/{f['change'][1]}" + ("; FAILED MORE" if f["more"] else ""))
        rounds = [[side["rounds"] for side in pair] for pair in pairs]
        print(f"{w} rounds per run: parent {sorted(r[0] for r in rounds)}, "
              f"change {sorted(r[1] for r in rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
