"""hinv benchmark: closed-loop workloads, end-to-end metrics and an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each workload (see workloads.py) is one client issuing one op at a time in
one process.  Every input is generated from the seed before its op's timed
span, and every output is checked exactly after it.

``--trace 0`` measures for ``--seconds`` seconds after one warm-up op and
reports the end-to-end metrics:

    setup_s      median wall time of a fresh ``python -m hinv.cli certify`` on
                 a horizon-4 file (interpreter start, import, first call)
    op_p50_s     median op latency
    op_p70_s     70th-percentile op latency: the highest percentile that keeps
                 ten samples above it on every workload at the benchmark's run
                 length, also when the machine is loaded (sweep-catalog ops
                 take about a second, so a run has 33 to 45 of them)
    items_per_s  verdicts, witnesses or CSV cells per second of op time
    ok_ratio     ops that passed their check over ops attempted (1 - failed ratio)
    peak_rss_mb  peak resident memory of the process that runs the ops; for
                 sweep-catalog the largest op child

sweep-catalog's op children run on one CPU in this mode, so its timings do
not depend on how the host schedules two cores at once.

``--trace 1`` runs a fixed number of seeded inputs (not a fixed time, so
every count repeats exactly for a seed), each once untraced and once traced
in-process, and reports the per-layer metrics of ``LAYER_METRICS``: calls and
seconds per op, largest rational bit lengths, witness attempts, and the
tracing overhead (traced over untraced median).  sweep-catalog also runs each
input once as its usual subprocess, free to use every CPU, for the child's
CPU seconds and CPU seconds per wall second.  The run fails
if an op never reaches a function its workload must call.

``--smoke`` runs every workload for a few ops at tiny N with every check and
the tracer on, with no timing thresholds, and checks the metric names
against BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a run record (git SHA, versions, sample counts) and a
table of the metrics go to stderr.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = 9
TAIL_PERCENTILE = 70
TRACE_OPS = {"certify-large": 16, "falsify-witness": 16, "sweep-catalog": 6}
SMOKE_OPS = 3

# (traced function, statistic, unit): counts and seconds are per traced op.
# What each layer should move, written down before measuring:
# - algebra.*, certify.*: op_p50_s, op_p70_s and items_per_s on certify-large,
#   less on sweep-catalog, barely on falsify-witness (certify is under 3% there).
# - worstcase.*, exactlinalg.*: the same three on falsify-witness only; the
#   other workloads never call them.
# - catalog.*, cli.main, cli.sweep.*: items_per_s and op_p50_s on sweep-catalog;
#   cli.main.self_s also sets the floor of certify-large once the tables are fast.
# - serialization.*: op_p50_s on certify-large and falsify-witness.
# - Import time moves setup_s and, through it, op_p50_s on sweep-catalog; a
#   table cache kept across calls would show in peak_rss_mb.
LAYER_METRICS = (
    ("algebra.HMatrix.column_sum", "calls", "count"),
    ("algebra.HMatrix.column_sum", "self_s", "s"),
    ("algebra.p_invariant", "calls", "count"),
    ("algebra.p_invariant", "self_s", "s"),
    ("certify.invariance_report", "calls", "count"),
    ("certify.invariance_report", "self_s", "s"),
    ("certify.certificates", "calls", "count"),
    ("certify.certificates", "self_s", "s"),
    ("certify.certificates", "max_bits", "bits"),
    ("certify.certify", "total_s", "s"),
    ("worstcase.suboptimality_witness", "self_s", "s"),
    ("worstcase.suboptimality_witness", "total_s", "s"),
    ("worstcase.suboptimality_witness", "pd_attempts", "count"),
    ("worstcase.suboptimality_witness", "max_bits", "bits"),
    ("worstcase.build_perturbation", "self_s", "s"),
    ("worstcase.build_perturbation", "total_s", "s"),
    ("worstcase.constraint_matrices", "self_s", "s"),
    ("worstcase.gram_g0", "self_s", "s"),
    ("worstcase.witness_vectors", "self_s", "s"),
    ("exactlinalg.solve_consistent", "calls", "count"),
    ("exactlinalg.solve_consistent", "self_s", "s"),
    ("exactlinalg.leading_principal_minors", "calls", "count"),
    ("exactlinalg.leading_principal_minors", "self_s", "s"),
    ("exactlinalg.mat_det", "calls", "count"),
    ("exactlinalg.mat_det", "self_s", "s"),
    ("catalog.self_dual_mixed", "self_s", "s"),
    ("catalog.second_mixed", "self_s", "s"),
    ("cli.main", "self_s", "s"),
    ("serialization.hmatrix_from_dict", "self_s", "s"),
    ("serialization.verdict_to_dict", "self_s", "s"),
    ("serialization.witness_to_dict", "self_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="certify-large, falsify-witness, sweep-catalog or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="few ops per workload at tiny N, every check on, no timing")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def say(text):
    print(text, file=sys.stderr, flush=True)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode or status.returncode:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def run_record(args, **extra):
    import numpy

    sha, dirty = git_state()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), **extra,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Attempted and failed ops of one run, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, wl, inp, op):
        """Run one op, check it, and return (latency_s, outcome, items) or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = op(inp)
            latency = time.perf_counter() - start
            items = wl.check(inp, out)
        except Exception as exc:  # any failing op is counted, not fatal
            self.failed += 1
            if self.failed <= 5:
                say(f"{wl.name}: op {list(inp.argv)} failed: {type(exc).__name__}: {exc}")
            return None
        return latency, out, items


def measure(wl, workdir, args, setup_reps, ops=None):
    """End-to-end metrics: one warm-up op, then ops for --seconds (or ``ops``).

    The set-up probes are spread evenly over the run, so a burst of load from
    elsewhere on the machine lands on few of them.
    """
    import workloads

    probe = workloads.setup_probe(args.seed, workdir, ROOT)
    probe()  # writes the bytecode caches an installed copy would have
    if wl.fresh_process:
        wl.cpus = {max(os.sched_getaffinity(0))}
    tally = Tally()
    tally.attempt(wl, wl.next_input(), wl.run)
    setup, latencies, items, child_rss_kb = [], [], 0, 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while (len(latencies) < ops) if ops else (tally.attempted < 2 or time.perf_counter() < deadline):
        if time.perf_counter() >= start + (len(setup) + 0.5) * args.seconds / setup_reps:
            setup.append(probe())
        done = tally.attempt(wl, wl.next_input(), wl.run)
        if done:
            latencies.append(done[0])
            items += done[2]
            child_rss_kb = max(child_rss_kb, done[1].maxrss_kb)
        elif ops and tally.failed > ops:
            break
    while len(setup) < setup_reps:
        setup.append(probe())
    wall = time.perf_counter() - start
    if wl.fresh_process:
        rss_kb = child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = latencies or [0.0]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1] \
        if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_s": metric(statistics.median(lat), "s"),
        "op_p70_s": metric(tail, "s"),
        "items_per_s": metric(items / sum(lat) if sum(lat) else 0.0, "1/s"),
        "ok_ratio": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    above = sum(1 for x in latencies if x > tail)
    if above < 10 and not ops:
        say(f"{wl.name}: only {above} samples above p{TAIL_PERCENTILE}; the run was too short")
    record = run_record(
        args, samples={"setup_s": len(setup), "op": len(latencies)},
        tail_percentile=TAIL_PERCENTILE, samples_above_tail=above,
        failed_ratio=tally.failed / tally.attempted, items=items, wall_s=wall,
    )
    return tally, metrics, record


def trace(wl, args, ops):
    """Per-layer metrics over ``ops`` seeded inputs, each run untraced and traced."""
    from layertrace import Tracer

    inputs = [wl.next_input() for _ in range(ops)]
    tracer = Tracer()
    tally = Tally()
    plain, traced, sweeps, cpu_s, wall_s = [], [], 0, 0.0, 0.0

    def traced_op(inp):
        with tracer.op():
            return wl.run_in_process(inp)

    for i, inp in enumerate(inputs):
        order = (plain, traced) if i % 2 == 0 else (traced, plain)
        for sink in order:
            done = tally.attempt(wl, inp, traced_op if sink is traced else wl.run_in_process)
            if done:
                sink.append(done[0])
        if wl.fresh_process:
            done = tally.attempt(wl, inp, wl.run)
            if done:
                sweeps += 1
                cpu_s += done[1].cpu_s
                wall_s += done[0]

    stats = tracer.stats
    metrics = {}
    for name, stat, unit in LAYER_METRICS:
        if stat == "max_bits":
            value = stats.max_bits[name]
        elif stat == "pd_attempts":
            value = stats.pd_attempts / stats.ops if stats.ops else 0.0
        else:
            value = stats.per_op(getattr(stats, stat), name)
        metrics[f"{name}.{stat}"] = metric(value, unit)
    metrics["cli.sweep.cpu_s"] = metric(cpu_s / sweeps if sweeps else 0.0, "s")
    metrics["cli.sweep.cpu_per_wall"] = metric(cpu_s / wall_s if wall_s else 0.0, "ratio")
    overhead = statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")

    missing = [name for name in wl.required if stats.calls[name] == 0]
    if missing:
        say(f"{wl.name}: traced ops never reached {', '.join(missing)}")
    record = run_record(args, samples={"traced_ops": stats.ops, "untraced_ops": len(plain)},
                        absent_functions=sorted(tracer.absent), unreached=missing)
    return tally, metrics, record, not missing


def run_one(args, smoke=False):
    """One workload, one mode; returns the result object printed as the last line."""
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT, smoke=smoke)
        if args.trace:
            ops = 2 if smoke else TRACE_OPS[args.workload]
            tally, metrics, record, reached = trace(wl, args, ops)
        else:
            tally, metrics, record = measure(wl, workdir, args, 1 if smoke else SETUP_REPS,
                                             ops=SMOKE_OPS if smoke else None)
            reached = True
    say("run record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        say(f"  {args.workload:16s} {name:52s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": tally.failed == 0 and reached,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def smoke(args):
    """Every workload at tiny N in both modes; exit 0 only if all checks pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for mode in (0, 1):
            args.workload, args.trace, args.seconds = name, mode, 0
            result = run_one(args, smoke=True)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != names[mode]:
                say(f"{name} trace={mode}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units.items()) ^ set(names[mode].items()))}")
                ok = False
            ok = ok and result["correct"]
            say(f"smoke {name} trace={mode}: {'ok' if result['correct'] else 'FAILED'} "
                f"({result['attempted']} ops)")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def run_all(args):
    """Each workload in its own interpreter, so memory peaks do not mix."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        code = code or done.returncode
    return code


def main(argv=None):
    args = parse_args(argv)
    # Unwind on SIGTERM as on an exception, so op children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = ROOT / "src"
    if not (src / "hinv" / "__init__.py").is_file():
        say(f"perfbench: no hinv sources under {src}; run from the root of a hinv checkout")
        return 2
    sys.path.insert(0, str(src))
    import hinv

    if not Path(hinv.__file__).resolve().is_relative_to(src.resolve()):
        say(f"perfbench: hinv was imported from {hinv.__file__}, not from {src}")
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        say(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
