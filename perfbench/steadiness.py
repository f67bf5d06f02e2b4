"""Repeat benchmark runs over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads decompose ...] [--traced-seeds 1]

Runs one workload after another for each seed, so that slow drift of the
machine spreads over all workloads. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles with n=4) and the quartile
distance as a share of the median, next to the metric's bound. Traced runs
add the traced and untraced jobs_per_s measured inside one process.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--traced-seeds", type=seeds, default=[])
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    values = {w: {} for w in args.workloads}
    failed = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            result = run(w, seed, args.seconds, 0)
            failed[w].append(f"{result['failed']}/{result['attempted']}{'' if result['correct'] else ' WRONG'}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            shown = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
            shown.append(f"failed_share {result['failed'] / result['attempted']:.3g} share")
            print(f"seed {seed} {w}: " + ", ".join(shown), flush=True)
    if len(args.seeds) > 1:  # quartiles need two runs
        print()
        print(f"{len(args.seeds)} seeds ({args.seeds[0]}..{args.seeds[-1]}), --seconds {args.seconds}")
        print()
        print("| workload | metric | median | q1 | q3 | spread | bound | spread < bound/3 |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for w in args.workloads:
            for m in bench["end_to_end"]:
                vals = values[w][m["name"]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                ok = "yes" if spread < m["bound"] / 3 else ("no, < bound" if spread < m["bound"] else "NO")
                print(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {m['bound']} | {ok} |")
    print()
    for w in args.workloads:
        print(f"{w}: failed/attempted per seed: {', '.join(failed[w])}")
    if args.traced_seeds:
        print()
        print("| workload | seed | untraced jobs_per_s | traced jobs_per_s | trace.overhead_share |")
        print("| --- | --- | --- | --- | --- |")
        for seed in args.traced_seeds:
            for w in args.workloads:
                result = run(w, seed, args.seconds, 1)
                detail = json.loads((ROOT / ".perfbench_out" / f"result-{w}-seed{seed}-trace1.json").read_text())
                r = detail["rates"]
                share = result["metrics"]["trace.overhead_share"]["value"]
                print(f"| {w} | {seed} | {r['untraced_jobs_per_s']:.4f} | {r['traced_jobs_per_s']:.4f} | {share:.4f} |", flush=True)


if __name__ == "__main__":
    main()
