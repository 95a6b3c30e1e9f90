"""glmdopt benchmark: one solver family per workload, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload fourpoint --seed 1 --seconds 20 --trace 0

Workloads: fourpoint, saturated, liftone, region (see perfbench/README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, whose
first half runs untraced to measure the tracing overhead. Every output is
checked by the gate in ``gate.py``; the run record and, for traced runs, the
spans are written under ``.perfbench_out/``. ``attempted`` and ``failed``
count the timed operations; the workload's known-defect probe is reported
on its own line and in ``failure_rate``.

A run imports glmdopt only from ``src/`` next to this directory and exits
with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: BLAS/OpenMP pools pinned to one thread before numpy loads (here and in probes)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: seconds of work a calibration burst around each set-up probe stands for
CAL_BURST = 2
PROBE_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "failure_rate": "fraction",
    "peak_rss_mb": "MiB",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["fourpoint", "saturated", "liftone", "region"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args()


def median(values):
    values = sorted(values)
    n = len(values)
    return 0.5 * (values[(n - 1) // 2] + values[n // 2])


def probe_setup(argv, ys):
    """Median set-up seconds over fresh processes running probe.py.

    Calibration samples bracket each probe, and each probe's time is scaled
    to the reference machine speed. Returns (scaled median, raw samples).
    """
    ys.measure(after=CAL_BURST)
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        ys.measure(after=CAL_BURST)
        scaled.append((0.5 * (t0 + t1), samples[-1]))
    return median([dt * ys.scale(t) for t, dt in scaled]), samples


def metadata(np, scipy):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "glmdopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "glmdopt", "__init__.py")):
        print(f"perfbench: no glmdopt sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import numpy as np
    import scipy

    import glmdopt

    if os.path.dirname(os.path.abspath(glmdopt.__file__)) != os.path.join(SRC, "glmdopt"):
        print(f"perfbench: glmdopt imported from {glmdopt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import calib
    import gate
    import tracer as tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_ys = calib.Yardstick(cls.kernel)
    setup_s, setup_samples = probe_setup(cls.warmup_argv, setup_ys)
    meta = metadata(np, scipy)
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        wl = cls(args.seed, tmpdir)
        workloads.run_cli(cls.warmup_argv)
        wl.solves[0].run()

        ys = calib.Yardstick(cls.kernel)
        if args.trace:
            plain, changed = workloads.run_rounds(wl, ys, args.seconds / 2.0)
            tr = tracing.Tracer().install()
            try:
                traced, changed_traced = workloads.run_rounds(
                    wl, ys, args.seconds / 2.0, workloads.fingerprint(wl, plain[0])
                )
            finally:
                tr.uninstall()
            rounds, changed = plain + traced, changed + changed_traced
        else:
            rounds, changed = workloads.run_rounds(wl, ys, args.seconds)
        outcomes = workloads.check_round(wl, rounds[0])
        probe = workloads.run_probe(wl)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    fails = [o for o in outcomes if o.status == gate.FAIL]
    reasons = Counter(o.reason for o in fails)
    labels = Counter(o.label for o in outcomes)
    n_items = len(outcomes)
    checked = sum(1 for o in outcomes if o.checked)
    unchecked = sum(1 for o in outcomes if o.status == gate.UNCHECKED)
    attempted = n_items * len(rounds)
    failed = len(fails) * len(rounds)
    probe_fails = [o for o in probe if o.status == gate.FAIL]
    probe_known = [o for o in probe_fails if cls.known(o)]
    probe_reasons = Counter(o.reason for o in probe_fails)
    correct = not fails and not changed and len(probe_known) == len(probe_fails)

    untraced = plain if args.trace else rounds
    # every round solves the same inputs, so each input's median over rounds
    # is its latency with transient machine stalls dropped; the percentiles
    # are taken over inputs
    latencies = np.median([r.latencies(ys) for r in untraced], axis=0)
    n_samples = len(latencies) * len(untraced)
    rates = [r.items_per_s(ys) for r in untraced if any(items for _, _, items in r.commands)]
    e2e = {
        "setup_s": setup_s,
        "items_per_s": median(rates) if rates else 0.0,
        "solve_p50_ms": workloads.percentile(latencies, 50) * 1e3,
        "solve_p90_ms": workloads.percentile(latencies, 90) * 1e3,
        "failure_rate": (len(fails) + len(probe_fails) + 1.0) / (n_items + len(probe) + 2.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "setup_samples_s": setup_samples,
        "rounds": len(rounds),
        "round_timed_s": [r.timed_s(ys) for r in rounds],
        "calibration_s": [dt for _, dt in ys.samples],
        "items_per_s_rounds": rates,
        "solve_samples": n_samples,
        "items_per_round": n_items,
        "gate": {
            "checked": checked,
            "unchecked": unchecked,
            "failed": len(fails),
            "rounds_changed": changed,
        },
        "failures_by_reason": dict(reasons.most_common()),
        "probe": {
            "inputs": len(probe),
            "failed": len(probe_fails),
            "known": len(probe_known),
            "failures_by_reason": dict(probe_reasons.most_common()),
            "case_mix": dict(sorted(Counter(o.label for o in probe).items())),
        },
        "case_mix": dict(sorted(labels.items())),
        "end_to_end": e2e,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        f"inputs: {len(wl.commands)} commands, {len(wl.solves)} solves, {n_items} items per round; "
        f"rounds {len(rounds)}; solve samples {n_samples} ({len(wl.solves)} per round)"
    )
    print(
        f"gate: checked {checked}, unchecked {unchecked}, failed {len(fails)}, "
        f"rounds with changed output {changed}"
    )
    for reason, count in reasons.most_common(8):
        print(f"  failure x{count}: {reason}")
    print(
        f"known-defect probe: {len(probe_fails)} of {len(probe)} fail "
        f"({len(probe_known)} as known at the parent commit)"
    )
    for reason, count in probe_reasons.most_common(8):
        print(f"  probe failure x{count}: {reason}")
    print("case mix " + json.dumps(record["case_mix"], sort_keys=True))

    if args.trace:
        n_traced = len(traced)
        base = median([r.timed_s(ys) for r in plain])
        layer = tr.metrics(n_traced)
        layer["trace.overhead_pct"] = (median([r.timed_s(ys) for r in traced]) / base - 1.0) * 100.0
        layer["gate.checked"] = float(checked)
        layer["gate.unchecked"] = float(unchecked)
        layer["gate.known_defect_ratio"] = len(probe_known) / len(probe) if probe else 0.0
        names = tracing.layer_metric_names()
        metrics = {name: {"value": layer[name], "unit": tracing.unit(name)} for name in names}
        record["per_layer"] = {name: layer[name] for name in names}
        record["binding_sites"] = tr.sites
        tr.write(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
        print(f"traced rounds {n_traced}, untraced rounds {len(plain)}; spans {len(tr.spans)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in UNITS}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
