#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a base revision against the working tree.

    python3 scripts/perf_ab.py --base REV --workload W --seed S --pairs N \\
        [--seconds 15]

Run from anywhere inside the repository.  The base revision is exported with
`git archive` into .bench_build/ab/<commit>/ (ignored, reused by later calls;
no network, and no worktree registration left behind if a run is cut), and
each side is built and run through its own perfbench/run.py, so the base is
measured with the benchmark definition it shipped with.  Pair i runs base
then head when i is even and head then base when it is odd, so a drifting
host does not always favour one side.

For every end-to-end metric of the head's BENCHMARK.json it prints both
medians, both interquartile ranges (q1..q3) and how many pairs the head won
(strictly better in the metric's direction; ties are counted apart).  Every
run's JSON line is appended to .bench_build/ab/<workload>-seed<S>.jsonl.
Exits 1 if any run is not `correct` or reports failed requests, 2 if a
build or run fails.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev):
    """Returns (commit, tree) for `rev`, exporting it on first use."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = AB_DIR / commit[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        staging = AB_DIR / f"{commit[:12]}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(staging)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")
        staging.rename(tree)
    return commit, tree


def build(tree):
    """Builds `tree`'s benchmark with its own run.py, outside any window."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import run; run.build()"],
        cwd=tree, check=True, stdout=sys.stderr)


def run(tree, args):
    """One untraced run of `tree`'s benchmark; returns its JSON result."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                            text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {result.returncode}")
    lines = [line for line in result.stdout.splitlines()
             if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree}: no JSON result line")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metrics, runs):
    """Prints the per-metric table; runs is a list of (base, head) dicts."""
    print(f"{'metric':<20} {'base median':>12} {'base q1..q3':>23} "
          f"{'head median':>12} {'head q1..q3':>23} {'change':>8} "
          f"{'head wins':>10}")
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        base = [pair[0]["metrics"][name]["value"] for pair in runs]
        head = [pair[1]["metrics"][name]["value"] for pair in runs]
        wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
        ties = sum(1 for b, h in zip(base, head) if h == b)
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        change = ("" if base_median == 0 else
                  f"{100.0 * (head_median - base_median) / base_median:+.1f}%")
        base_q = "{:.4g}..{:.4g}".format(*quartiles(base))
        head_q = "{:.4g}..{:.4g}".format(*quartiles(head))
        won = f"{wins}/{len(runs)}" + (f" ={ties}" if ties else "")
        print(f"{name:<20} {base_median:>12.4g} {base_q:>23} "
              f"{head_median:>12.4g} {head_q:>23} {change:>8} {won:>10}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        commit, base_tree = export(args.base)
        build(base_tree)
        build(ROOT)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        print(f"perf_ab: {error}", file=sys.stderr)
        return 2
    print(f"base {commit[:12]} vs working tree: {args.workload}, seed "
          f"{args.seed}, {args.pairs} pairs of {args.seconds:g} s runs",
          flush=True)

    log = AB_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    runs = []
    bad = 0
    for pair in range(args.pairs):
        sides = [("base", base_tree), ("head", ROOT)]
        if pair % 2 == 1:
            sides.reverse()
        results = {}
        for side, tree in sides:
            try:
                results[side] = run(tree, args)
            except (OSError, RuntimeError, json.JSONDecodeError) as error:
                print(f"perf_ab: {error}", file=sys.stderr)
                return 2
            with log.open("a") as out:
                out.write(json.dumps({"side": side, "commit": commit,
                                      "pair": pair, **results[side]}) + "\n")
            if not results[side]["correct"] or results[side]["failed"] != 0:
                bad += 1
                print(f"pair {pair} {side}: correct="
                      f"{results[side]['correct']} failed="
                      f"{results[side]['failed']}", file=sys.stderr)
        runs.append((results["base"], results["head"]))
        first = sides[0][0]
        print(f"pair {pair + 1}/{args.pairs} ({first} first): throughput "
              f"{results['base']['metrics']['throughput_rps']['value']:.4g}"
              f" -> {results['head']['metrics']['throughput_rps']['value']:.4g}",
              flush=True)

    summarize(metrics, runs)
    if bad:
        print(f"perf_ab: {bad} run(s) not correct or with failures",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
