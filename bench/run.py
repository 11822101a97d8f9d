"""g2real benchmark: one workload per run, closed loop in one process.

    python3 bench/run.py --workload {lift,census,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; g2real is imported from its ``src``.  With
``--trace 0`` the run sets up several times (``setup_s`` is the import time
plus the median set-up), then repeats rounds, each round bringing every
element of the workload to a checked verdict, while another round fits in
``--seconds``.  With ``--trace 1`` it runs
one untraced round, one round with spans, and two counting rounds, and
reports the per-layer metrics named in ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the lines before it give every metric by
name and unit and a JSON block with provenance and details.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5


def load_workloads():
    """Import the workloads (and with them g2real from ROOT/src); returns the
    module and the seconds the import took."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    start = time.perf_counter()
    import g2real
    import workloads

    seconds = time.perf_counter() - start
    origin = Path(g2real.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"g2real was imported from {origin}, not from {ROOT / 'src'}")
    return workloads, seconds


def run_round(prepared, tracer=None):
    """Bring every element to a checked verdict; returns the round's record."""
    outcomes = []
    start = time.perf_counter()
    for item in prepared.items:
        if tracer is not None:
            tracer.element = item.ident
        outcomes.append(item.run())
    if tracer is not None:
        tracer.element = None
    ops = prepared.check(outcomes)
    wall = time.perf_counter() - start
    return {"wall": wall, "element_s": [o.seconds for o in outcomes], "ops": ops}


def failures(rounds):
    return [(op, err) for rnd in rounds for op, err in rnd["ops"] if err is not None]


def end_to_end(prepare, seed, seconds, import_s):
    """Rounds while another one fits in ``seconds`` (at least one).  Each
    element is timed by its fastest round; run_s is the sum of those times (a
    round with every element at its fastest), and the element percentiles are
    over them."""
    build = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = prepare(seed)
        build.append(time.perf_counter() - start)
    # fixed by the round size, so every run reports the same percentile
    tail_p = tail_percentile(len(prepared.items))
    rounds = []
    start = time.perf_counter()
    # start another round only while it should end within the time given
    while not rounds or time.perf_counter() - start + statistics.mean(walls) <= seconds:
        rounds.append(run_round(prepared))
        walls = [rnd["wall"] for rnd in rounds]
    # Each timing is the fastest over the rounds: other tenants of the machine
    # only ever add time, in bursts, so a whole round is rarely free of them
    # while most elements have a round that is.
    ms = [1000 * min(times) for times in zip(*(rnd["element_s"] for rnd in rounds))]
    best = sum(ms) / 1000
    metrics = {
        "setup_s": import_s + statistics.median(build),
        "run_s": best,
        "elements_per_s": len(ms) / best,
        "element_ms_p50": statistics.median(ms),
        "element_ms_tail": percentile(ms, tail_p),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "round_s": walls,
        "elements_per_round": len(prepared.items),
        "element_ms_tail": {"percentile": tail_p, "elements": len(ms)},
        "import_s": import_s,
        "setup_build_s": build,
    }
    return metrics, rounds, details


def per_layer(prepare, seed):
    prepared = prepare(seed)
    untraced = run_round(prepared)
    traced, spans, _ = layers.traced_pass(prepare, seed, run_round)
    counted = [layers.traced_pass(prepare, seed, run_round, count=True) for _ in range(2)]
    metrics = layers.span_metrics(spans)
    metrics.update(layers.call_costs(prepared.samples, seed))
    exact = [layers.exact_counts(s, c) for _, s, c in counted]
    metrics["fields.ops"] = exact[0]["fields.ops"]
    metrics["linalg.calls"] = exact[0]["linalg.calls"]
    # the span pass must agree with both counting passes on the counts it has
    mismatched = [
        name for name in layers.EXACT_COUNTS
        if not exact[0][name] == exact[1][name] == metrics[name]
    ]
    rounds = [untraced, traced] + [rnd for rnd, _, _ in counted]
    error = f"counts differ between passes: {mismatched}" if mismatched else None
    rounds.append({"ops": [("count exactness", error)]})
    details = {
        "tracing_overhead": {
            "untraced_run_s": untraced["wall"],
            "traced_run_s": traced["wall"],
            "overhead_s": traced["wall"] - untraced["wall"],
        },
        "counting_run_s": [rnd["wall"] for rnd, _, _ in counted],
        "exact_counts": exact,
        "spans": len(spans),
        "oracle_cand_per_s_by_family": layers.oracle_rates(spans),
        "layer_map": layers.LAYER_MAP,
    }
    return metrics, rounds, details


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD of the repository whose top level is ROOT, or None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lift", "census", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workloads, import_s = load_workloads()
    except ImportError as exc:
        print(f"cannot import g2real from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy

    prepare = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, rounds, details = per_layer(prepare, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, rounds, details = end_to_end(prepare, args.seed, args.seconds, import_s)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    failed = failures(rounds)
    attempted = sum(len(rnd["ops"]) for rnd in rounds)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": loadavg,
        # measured by --trace 1 runs only
        "tracing_overhead": details.pop("tracing_overhead", None),
    }
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"provenance": provenance, "details": details,
                      "failures": [f"{op}: {err}" for op, err in failed[:20]]}))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
