"""Benchmark for traceprod: one workload per run.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop: one client runs the jobs of workloads.json one
after another, in whole passes over the mix. The program sees only the inputs
generated from --seed during set-up. Outputs are checked against ground truth
after the timed loop. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics of BENCHMARK.json; with --trace 1 it has the
per-layer metrics, measured from spans around calls into traceprod's public
functions. Details of the run go to .perfbench_out/ in the checkout.
"""
import os
import time

T0 = time.perf_counter()

# One BLAS thread in this process and in every child it starts: on a few shared
# vCPUs a second BLAS thread makes a matmul's time jump between two levels
# whenever a neighbour takes a core, which swamps any change in the program.
# Set before numpy is imported, since OpenBLAS reads it once at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from jobs import CliJob, Failure, Generator, Lib, Outcome, make_jobs, source_env  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# job_tail_s is the highest percentile with at least this many jobs beyond it
TAIL_BEYOND = 10
# mean of gauge_s() on a 2-vCPU x86_64 VM (Xeon, 2.0 GHz) with one OpenBLAS
# thread: the speed that the end-to-end times are scaled to (see end_to_end)
GAUGE_NOMINAL_S = 0.125


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="cheapest job kinds, one set-up, one pass; without --workload, run every "
        "workload both ways and check that each metric is printed with its unit",
    )
    return p.parse_args(argv)


def tail(latencies):
    """(value, percentile, jobs beyond) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the maximum when there are too few jobs."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        return ordered[-1], 100.0, 0
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), TAIL_BEYOND


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return info


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
    }


def setup(lib, jobs, seed, repeats):
    """Build every job's inputs cold and warm up each code path, `repeats` times.

    Returns the duration of each repetition; the last one's inputs are used.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib.clear_caches()
        gen = Generator(lib, seed)
        for job in jobs:
            job.prepare(gen)
        warmed = set()
        for job in jobs:
            if job.warm_key not in warmed:
                warmed.add(job.warm_key)
                job.warm(lib)
        times.append(time.perf_counter() - start)
    return times


def run_job(lib, job, records, tracer=None) -> float:
    """Run one job and record (job, latency, outcome, traced); returns the latency."""
    if tracer is not None:
        tracer.job = len(records)
    start = time.perf_counter()
    try:
        out = job.run(lib)
    except Exception as exc:  # a job that raises is counted, not fatal
        out = Outcome(error=exc)
    latency = time.perf_counter() - start
    records.append((job, latency, out, tracer is not None))
    return latency


@functools.cache
def _gauge_inputs():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((160, 160)),
        rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256)),
        rng.standard_normal((256, 512)) + 1j * rng.standard_normal((256, 512)),
    )


def gauge_s() -> float:
    """Seconds for a fixed load that uses none of traceprod: an SVD, a complex
    einsum and interpreted Python, the three kinds of work the workloads mix.

    One untimed round first, so that caches a job left cold do not count.
    """
    M, C, B = _gauge_inputs()
    for timed in (False, True):
        start = time.perf_counter()
        for _ in range(4 if timed else 1):
            np.linalg.svd(M)
            np.einsum("ij,jk->ik", C, B)
            counts = {}
            for k in range(40000):
                counts[k % 997] = counts.get(k % 997, 0) + k
    return time.perf_counter() - start


def one_pass(lib, jobs, records, gauges=None) -> float:
    """Run every job once, timing the gauge before each into `gauges` if given;
    returns the pass's wall time, gauges excluded."""
    wall = 0.0
    for job in jobs:
        if gauges is not None:
            gauges.append(gauge_s())
        wall += run_job(lib, job, records)
    return wall


def gate_all(lib, records):
    failures = []
    for i, (job, _, out, _) in enumerate(records):
        try:
            failure = job.gate(lib, out)
        except Exception as exc:  # a gate that cannot read the output is a wrong result
            failure = Failure(f"gate raised {type(exc).__name__}: {exc}")
        if failure is not None:
            failures.append({"job": i, "kind": job.kind, "detail": failure.detail, "known": failure.known})
    return failures


def process_times(root):
    """Median start-up of a bare interpreter and of `import traceprod`."""
    env = source_env(root)

    def timed(code):
        samples = []
        for _ in range(IMPORT_REPEATS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            samples.append(time.perf_counter() - t)
        return statistics.median(samples)

    return timed("pass"), timed("import traceprod")


def end_to_end(records, jobs, wall, setup_s, cli, gauges):
    """The end-to-end metrics of an untraced loop, and the lines explaining them.

    Every time is scaled by GAUGE_NOMINAL_S over the run's mean gauge time,
    to what it would be on the machine at its nominal speed: on a shared host
    the whole machine runs slower for minutes at a time, and the gauge, timed
    between jobs, slows with it.
    """
    latencies = [lat for _, lat, _, _ in records]
    tail_s, tail_pct, beyond = tail(latencies)
    kind_p50 = kind_medians(records)
    worst = max(kind_p50, key=kind_p50.get)
    # a pass over the mix at each kind's median latency: a few seconds of a
    # neighbour's load slow one sample of a kind, not the throughput
    pass_p50 = [kind_p50[job.kind] for job in jobs]
    median_pass_s = sum(pass_p50)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(jobs) / median_pass_s,
        # not the median of all samples: kinds cluster, and the median sample
        # jumps between clusters when one sample of a kind runs slow
        "job_p50_s": statistics.median(pass_p50),
        "job_tail_s": tail_s,
        "worst_kind_p50_s": kind_p50[worst],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    gauge = statistics.fmean(gauges)
    scale = GAUGE_NOMINAL_S / gauge
    unscaled = {k: v for k, v in metrics.items() if k != "peak_rss_mb"}
    for k in ("setup_s", "job_p50_s", "job_tail_s", "worst_kind_p50_s"):
        metrics[k] *= scale
    metrics["jobs_per_s"] /= scale
    lines = [
        f"gauge mean {gauge * 1e3:.2f} ms of {len(gauges)}, {min(gauges) * 1e3:.2f} to "
        f"{max(gauges) * 1e3:.2f} ms (nominal {GAUGE_NOMINAL_S * 1e3:.1f} ms); times scaled by {scale:.4f}",
        "unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()),
        f"jobs_per_s is {len(jobs)} jobs over a median pass of {median_pass_s:.4f} s unscaled; "
        f"wall-clock {len(latencies) / wall:.4f} 1/s over {len(latencies) // len(jobs)} passes",
        f"job_tail_s is p{tail_pct:.1f} of {len(latencies)} jobs, {beyond} beyond it",
        f"worst kind: {worst}",
        f"peak_rss_mb is the peak of the {'largest child process' if cli else 'benchmark process'}",
    ]
    return metrics, lines, {"gauges_s": gauges, "scale": scale, "unscaled": unscaled}


def per_layer(lib, jobs, records, seconds, pass_s, smoke, spans_path):
    """Run each job untraced and traced back to back, pass after pass; the
    per-layer metrics of the traced jobs, the lines explaining them, and both
    sides' jobs_per_s. Pairing each job with itself keeps the machine's drift
    out of trace.overhead_share."""
    tracer = Tracer(lib)
    cli = [job for job in jobs if isinstance(job, CliJob)]
    for job in cli:
        job.inprocess = True
    if cli:
        # set-up warmed the pipelines in child processes; warm this process too
        one_pass(lib, cli, [])
    pairs = 1 if smoke else max(1, round(seconds / (2 * pass_s)))
    log_ratios = []
    for p in range(pairs):
        for i, job in enumerate(jobs):
            # every other job runs traced first, since a job's second run is often faster
            plain_first = (i + p) % 2 == 0
            if plain_first:
                plain = run_job(lib, job, records)
            tracer.install()
            try:
                traced = run_job(lib, job, records, tracer)
            finally:
                tracer.uninstall()
            if not plain_first:
                plain = run_job(lib, job, records)
            log_ratios.append(math.log(traced / plain))
    traced = [r for r in records if r[3]]
    metrics = layer_metrics(tracer.spans, len(traced))
    io = [job.io_bytes(out) for job, _, out, _ in traced if isinstance(job, CliJob)]
    metrics["jsonio.bytes_in"] = sum(r for r, _ in io) / len(traced)
    metrics["jsonio.bytes_out"] = sum(w for _, w in io) / len(traced)
    metrics["cli.interp_s"], metrics["cli.import_s"] = process_times(ROOT)
    traced_s = sum(lat for _, lat, _, _ in traced)
    rates = {
        "untraced_jobs_per_s": (len(records) - len(traced)) / (sum(lat for _, lat, _, _ in records) - traced_s),
        "traced_jobs_per_s": len(traced) / traced_s,
    }
    # geometric mean over jobs, so that the heavy jobs' run order does not decide it
    metrics["trace.overhead_share"] = math.exp(statistics.fmean(log_ratios)) - 1.0
    coords = metrics["spaces.coords_batch.self_s"] + metrics["spaces.reassemble_batch.self_s"]
    lines = [
        f"jobs_per_s untraced {rates['untraced_jobs_per_s']:.4f} 1/s, traced {rates['traced_jobs_per_s']:.4f} 1/s",
        f"spaces.coords_batch + spaces.reassemble_batch self time: {coords * len(traced) / traced_s:.3f} of traced job time",
        f"{len(tracer.spans)} spans",
    ]
    tracer.write(spans_path)
    return metrics, lines, rates


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this VM's CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def kind_medians(records) -> dict:
    by_kind = {}
    for job, lat, _, traced in records:
        if not traced:
            by_kind.setdefault(job.kind, []).append(lat)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def measure(args, spec, metric_units):
    """Set up, run the timed loop and gate it; returns (result, report lines)."""
    sys.path.insert(0, str(SRC))
    import traceprod

    if not Path(traceprod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported traceprod from {traceprod.__file__}, not from {SRC}")
    import_s = time.perf_counter() - T0
    lib = Lib()
    specs = [s for s in spec["jobs"] if s.get("smoke") or not args.smoke]
    jobs = make_jobs(specs, args.seed, ROOT, TMP)
    setup_times = setup(lib, jobs, args.seed, 1 if args.smoke or args.trace else SETUP_REPEATS)
    lines = [f"setup: import {import_s:.4f} s, repetitions {', '.join(f'{t:.4f}' for t in setup_times)} s"]

    records = []
    rates, gauge = {}, {}
    if args.trace:
        metrics, more, rates = per_layer(
            lib, jobs, records, args.seconds, spec["pass_s"], args.smoke, OUT / f"spans-{run_label(args)}.jsonl"
        )
    else:
        passes = 1 if args.smoke else max(1, round(args.seconds / spec["pass_s"]))
        gauges = []
        steal = steal_s()
        wall = sum(one_pass(lib, jobs, records, gauges) for _ in range(passes))
        steal = steal_s() - steal
        cli = any(isinstance(j, CliJob) for j in jobs)
        metrics, more, gauge = end_to_end(
            records, jobs, wall, import_s + statistics.median(setup_times), cli, gauges
        )
        more.append(f"steal time of the machine during the timed loop: {steal:.2f} s")
    lines += more

    failures = gate_all(lib, records)
    failed, attempted = len(failures), len(records)
    lines.append(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} jobs)")
    for f in failures:
        lines.append(f"  failed: {f['kind']}: {f['detail']}" + (" [known defect]" if f["known"] else ""))
    result = {
        "correct": all(f["known"] for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in metric_units.items()},
    }
    record = run_record(args)
    detail = {
        "record": record,
        "result": result,
        "failed_share": failed / attempted,
        "failures": failures,
        "kind_p50_s": kind_medians(records),
        "latencies_s": [[job.kind, lat, traced] for job, lat, _, traced in records],
        "rates": rates,
        "gauge": gauge,
        "notes": lines,
    }
    with open(OUT / f"result-{run_label(args)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result, ["run record " + json.dumps(record), *lines]


def run_label(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"


def smoke(bench) -> int:
    """Run every workload of workloads.json on its cheapest jobs, untraced and
    traced, and check that each metric of BENCHMARK.json is printed with its unit."""
    problems = []
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        names = list(json.load(fh))
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            text = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not text:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(text[-1])
            printed = {line.split()[0]: line.split()[2] for line in text[:-1] if len(line.split()) == 3}
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{name} trace {trace}: {m['name']} missing or without unit {m['unit']}")
                elif printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{name} trace {trace}: {m['name']} not printed with its unit")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: wrong results\n" + "\n".join(text[:-1]))
            print(f"smoke {name} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['failed']} of {result['attempted']} jobs failed")
    for p in problems:
        print("smoke problem:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "traceprod" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"perfbench: {ROOT} holds no traceprod sources under src/; run from a checkout", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.smoke and args.workload is None:
        return smoke(bench)
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(workloads)}", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        result, lines = measure(args, workloads[args.workload], units)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
