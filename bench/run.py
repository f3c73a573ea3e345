"""Benchmark of the blocktoeplitz decision procedures.

Run from the repository root:

    python3 bench/run.py --workload sweep-scalar --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

One caller in one process puts one case at a time to the library and
waits for its verdict (a closed loop); BLAS keeps its default thread
count, which the machine record states. A run measures whole passes of
its workload (see `workloads.py`), as many as end closest to
`--seconds`. Every output is checked against `reference.json`.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the library is wrapped by the
span tracer and the object holds the per-layer metrics, per pass. Both
write a result file with the machine record and the extra counts
(`failed_frac`, `undecided_frac`, `mismatch_count`, the tail percentile
and its sample count) to `bench/out/`; a traced run also writes its spans
there. `--workload all` runs every workload with tracing off and on, and
prints every metric with its unit and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import LAYERS as TRACED_LAYERS, Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("sweep-scalar", "rational-classify", "window-grid")
LAYERS = TRACED_LAYERS + ("linalg", "bench")

# Fresh process: import the package and make one warm-up call.
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.warm_up(sys.argv[3])\n"
    "print(time.perf_counter() - t0)\n"
)

# Functions whose self time and calls per pass are reported.
TRACED = (
    "symbols.mul", "operators.hankel_window", "operators.toeplitz_window",
    "operators.k_hypo_window", "operators.square_hypo_window", "operators.selfcommutator_exact",
    "linalg.eigh", "linalg.norm", "rational.init", "rational.fourier_coeffs",
    "blaschke.coanalytic_decompose", "modelspace.hermite_fejer_solve", "modelspace.build_M",
    "modelspace.poly_of_M", "modelspace.compression_oracle", "decide.decide_hyponormal",
    "decide.factorize", "decide.classify_normal_or_analytic", "decide.complete_ustar",
    "cli.main",
)
# Self times that no workload leaves at exactly zero. The others read 0 on
# a workload that never enters them (rational-classify never reaches the
# eigensolver; window-grid never enters decide, modelspace, blaschke,
# rational or cli); they go to the result file only, so that every time
# on the result line is a measured, nonzero value.
SELF_S_ON_LINE = ("symbols", "operators", "linalg", "bench", "symbols.mul",
                  "operators.hankel_window", "operators.toeplitz_window")


def machine_record(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(name, samples):
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, BENCH, name], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def run_passes(workload, reference, seconds, tracer):
    """Run whole passes while the measured time stays within half a pass of `seconds`."""
    import workloads as wl

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    paused = tracer.paused if tracer else contextlib.nullcontext
    stats = {"case_ms": [], "walls": [], "attempted": 0, "failed": 0, "undecided": 0,
             "disagree": 0, "mismatches": []}
    p = 0
    while True:
        with paused():
            cases = workload.pass_cases(p)
        t_pass = time.perf_counter()
        for case in cases:
            stats["attempted"] += 1
            with span("bench.case"):
                t0 = time.perf_counter()
                try:
                    res = case.call()
                except Exception:  # a failed case is counted and the run goes on
                    res = None
                    error = traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
            stats["case_ms"].append(dt * 1e3)
            with span("bench.check"):
                if res is None:
                    stats["failed"] += 1
                    stats["mismatches"].append(f"{case.kind}/{case.key}: raised\n{error}")
                    continue
                obs = case.observe(res)
                stats["mismatches"] += wl.check(case, obs, wl.expected_fields(reference, case))
                stats["undecided"] += wl.is_undecided(obs)
                stats["disagree"] += wl.routes_disagree(obs)
        stats["walls"].append(time.perf_counter() - t_pass)
        p += 1
        if sum(stats["walls"]) + statistics.median(stats["walls"]) / 2 > seconds:
            return stats


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(stats, setup_s, tail_pct):
    n = stats["attempted"]
    tail = percentile(stats["case_ms"], tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(stats["walls"]), "s"),
        "cases_per_s": (n / sum(stats["walls"]), "1/s"),
        "case_ms.p50": (percentile(stats["case_ms"], 50), "ms"),
        "case_ms.tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "decided_frac": (1.0 - stats["undecided"] / n, "ratio"),
    }
    extra = {
        "failed_frac": (stats["failed"] / n, "ratio"),
        "undecided_frac": (stats["undecided"] / n, "ratio"),
        "mismatch_count": (len(stats["mismatches"]), "count"),
        "route_disagreements": (stats["disagree"], "count"),
        "case_ms.tail_percentile": (tail_pct, "%"),
        "case_ms.tail_samples_beyond": (sum(v > tail for v in stats["case_ms"]), "count"),
        "cases": (n, "count"),
    }
    return metrics, extra


def per_layer(stats, summary):
    """Per-layer metrics per pass: (those on the result line, the rest)."""
    passes = len(stats["walls"])
    names = summary["per_name"]
    metrics = {
        "traced.wall_s": (statistics.median(stats["walls"]), "s"),
        "unattributed_s": (summary["unattributed_s"] / passes, "s"),
        "spans": (summary["spans"] / passes, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary["per_layer"].get(layer, 0.0) / passes, "s")
    for name in TRACED:
        metrics[f"{name}.self_s"] = (names.get(name, {}).get("self_s", 0.0) / passes, "s")
        metrics[f"{name}.calls"] = (names.get(name, {}).get("calls", 0) / passes, "count")
    metrics.update({
        "symbols.to_symbol.modes": (summary["to_symbol_modes"] / passes, "count"),
        "operators.window_bytes": (summary["window_bytes"] / passes, "B"),
        "operators.doubling_share": (summary["doubling_share"], "ratio"),
        "operators.exact_frac": (summary["exact_frac"], "ratio"),
        "linalg.eigh.max_order": (summary["eigh_max_order"], "count"),
        "modelspace.grids_per_oracle": (summary["grids_per_oracle"], "ratio"),
    })
    off_line = {f"{n}.self_s" for n in LAYERS + TRACED} - {f"{n}.self_s" for n in SELF_S_ON_LINE}
    return ({k: v for k, v in metrics.items() if k not in off_line},
            {k: v for k, v in metrics.items() if k in off_line})


def run_workload(name, seed, seconds, trace, smoke):
    setup = None
    if not trace:
        setup = measure_setup(name, 1 if smoke else SETUP_SAMPLES)
    sys.path[:0] = [SRC]
    import workloads as wl

    reference = wl.load_reference()
    workload = wl.WORKLOADS[name](seed, reference, smoke)
    for case in wl.WORKLOADS[name](seed, reference, smoke=True).pass_cases(0):  # warm-up, untimed
        case.call()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        stats = run_passes(workload, reference, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
              "passes": len(stats["walls"]), "pass_walls_s": stats["walls"],
              "machine": machine_record(seed), "mismatches": stats["mismatches"][:50]}
    os.makedirs(OUT, exist_ok=True)
    if trace:
        metrics, extra = per_layer(stats, tracer.summary(sum(stats["walls"])))
        tracer.write(os.path.join(OUT, f"{name}.spans.npz"))
    else:
        metrics, extra = end_to_end(stats, setup[0], workload.tail_pct)
        record["setup_samples_s"] = setup[1]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for msg in stats["mismatches"][:10]:
        print(f"mismatch: {msg}", file=sys.stderr)
    print(json.dumps(record["machine"]), file=sys.stderr)
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{name:18s} {k:42s} {v:>16.6g} {u}", file=sys.stderr)
    return {"correct": not stats["mismatches"], "attempted": stats["attempted"],
            "failed": stats["failed"], "metrics": record["metrics"]}


def run_all(args):
    """Every workload with tracing off and on, in fresh processes; one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json"),
                      encoding="utf-8") as f:
                runs[trace] = json.load(f)
            rows.append((name, f"correct (trace {trace})", result["correct"], ""))
        for trace in (0, 1):
            for k, m in {**runs[trace]["metrics"], **runs[trace]["extra"]}.items():
                rows.append((name, k, m["value"], m["unit"]))
        overhead = runs[1]["metrics"]["traced.wall_s"]["value"] - runs[0]["metrics"]["wall_s"]["value"]
        rows.append((name, "tracing_overhead_s", overhead, "s"))
    print(json.dumps(runs[0]["machine"]))
    for name, k, v, u in rows:
        print(f"{name:18s} {k:42s} {v!s:>24} {u}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes and one set-up sample, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blocktoeplitz", "__init__.py")):
        print(f"error: no blocktoeplitz package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
