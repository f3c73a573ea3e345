"""Record the benchmark's reference outputs and its baseline rows.

    python3 bench/record.py reference   # writes bench/reference.json
    python3 bench/record.py baselines   # writes bench/baseline.json

`reference` runs every pooled and fixed case once and stores the fields
the output check compares. `baselines` times the named single cases that
later changes cite as before/after rows, each in a fresh process after
one warm-up, and stores every sample with its median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [SRC, BENCH]

BASELINE_SAMPLES = 5

# name -> statement timed in a fresh process after running it once untimed
BASELINES = {
    "classifier_harness(100)": "suites.classifier_harness(cases=100, seed=0)",
    "k_hypo_window(gap, k=2, W=256)": "op.k_hypo_window(wl.PHI_GAP, 2, 256)",
    "k_hypo_window(gap, k=4, W=128)": "op.k_hypo_window(wl.PHI_GAP, 4, 128)",
    "square_hypo_window(zbar+2z, 512)": "op.square_hypo_window(wl.PHI_SHIFT_DOUBLE, 512)",
}
BASELINE_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads as wl\n"
    "from blocktoeplitz import operators as op, suites\n"
    "stmt = sys.argv[3]\n"
    "exec(stmt)\n"
    "t0 = time.perf_counter()\n"
    "exec(stmt)\n"
    "print(time.perf_counter() - t0)\n"
)


def record_reference():
    import run
    import workloads as wl

    pools = {
        "scalar": [wl.scalar_case(i) for i in range(wl.POOL["scalar"])],
        "family": [wl.completion_case("family", str(i), phi, psi)
                   for i, (phi, psi) in enumerate(wl.family_pairs())],
        "nonfamily": [wl.nonfamily_case(i) for i in range(wl.POOL["nonfamily"])],
        "classify": [wl.classify_case(i) for i in range(wl.POOL["classify"])],
    }
    keyed = {
        "cli": [wl.cli_case(k, argv) for k, argv in wl.cli_commands().items()],
        "pole": [wl.pole_case(m) for m in range(1, 6)],
        "window": [wl.window_case(*row) for row in wl.WINDOW_GRID + wl.WINDOW_GRID_SMOKE],
    }
    out = {"machine": run.machine_record(None)}
    problems = []
    disagree = []
    for kind, cases in list(pools.items()) + list(keyed.items()):
        rows = []
        for case in cases:
            obs = case.observe(case.call())
            problems += wl.check(case, obs, None)
            if wl.routes_disagree(obs):
                disagree.append(f"{kind}/{case.key}: {obs}")
            row = wl.reference_row(case, obs)
            rows.append([float(f"{v:.11e}") if isinstance(v, float) else v for v in row])
        out[kind] = rows if kind in pools else {c.key: r for c, r in zip(cases, rows)}
        print(f"{kind}: {len(rows)} cases", file=sys.stderr)
    models = [wl.model_case(i) for i in range(wl.POOL["model"])]
    for case in models:
        problems += wl.check(case, case.observe(case.call()), None)
    print(f"model: {len(models)} cases (checked against the tolerance only)", file=sys.stderr)
    for line in disagree:
        print(f"routes disagree (recorded as found): {line}", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(out, f, separators=(",", ":"))
        f.write("\n")
    return 0


def record_baselines():
    import run

    rows = {}
    for name, stmt in BASELINES.items():
        samples = []
        for _ in range(BASELINE_SAMPLES):
            proc = subprocess.run([sys.executable, "-c", BASELINE_CHILD, SRC, BENCH, stmt],
                                  capture_output=True, text=True, timeout=300, check=True)
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        rows[name] = {"median_s": statistics.median(samples), "samples_s": samples,
                      "statement": stmt}
        print(f"{name:36s} {statistics.median(samples):.4f} s {samples}", file=sys.stderr)
    record = {"machine": run.machine_record(None),
              "recorded": time.strftime("%Y-%m-%d", time.gmtime()), "rows": rows}
    with open(os.path.join(BENCH, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "reference":
        raise SystemExit(record_reference())
    if what == "baselines":
        raise SystemExit(record_baselines())
    print(__doc__, file=sys.stderr)
    raise SystemExit(2)
