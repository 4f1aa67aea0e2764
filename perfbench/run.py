#!/usr/bin/env python3
"""The cfdeform benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep, qtower, symbolic, cli, or ``all`` to run the four in
turn.  The seed fixes the workload's list of operations.  With ``--trace 0``
the run repeats the whole list until the operations have been busy for S
seconds, checks every result outside the timed region, and reports the
end-to-end metrics from each operation's median time over the passes,
rescaled to a fixed machine speed by a reference computation timed
between the operations (see ``calibrate``).  With
``--trace 1`` it runs the list twice untraced and once under the layer
tracer and reports the per-layer metrics; that run does a fixed amount of
work, so its counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it start with "#" and
give the run context and the metrics in words.  Results and trace spans are
also written under .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sweep", "qtower", "symbolic", "cli")
SETUP_PROBES = 11
CLI_PROBES = 5
# Stop starting new passes after this much wall time, whatever --seconds says.
MAX_WALL_S = 140.0
# The speed reference: best of CAL_REPS timings of a fixed pure-Python
# computation, and the time it takes on the reference machine.
CAL_REPS = 3
CAL_REF_S = 0.0007

END_TO_END = {
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "exactnum.poly_gcd.calls": "count",
    "exactnum.poly_gcd.self_s": "s",
    "exactnum.poly_gcd.max_deg": "degree",
    "exactnum.ratfun_reduce.calls": "count",
    "exactnum.ringpoly_mul.calls": "count",
    "exactnum.ringpoly_mul.coeff_mults": "count",
    "exactnum.ringpoly_mul.self_s": "s",
    "exactnum.ringpoly_add.calls": "count",
    "exactnum.series_of_ratfun.calls": "count",
    "exactnum.series_of_ratfun.coeffs": "count",
    "exactnum.series_of_ratfun.self_s": "s",
    "udeform.f_pair.calls": "count",
    "udeform.f_pair.steps": "count",
    "udeform.f_pair.self_s": "s",
    "udeform.quantize.calls": "count",
    "udeform.quantize.self_s": "s",
    "qdeform.q_deform.calls": "count",
    "qdeform.q_deform.tower_levels": "count",
    "qdeform.q_deform.self_s": "s",
    "qdeform.q_deform_series.self_s": "s",
    "contfrac.cf_expand.calls": "count",
    "contfrac.stream_terms": "count",
    "contfrac.self_s": "s",
    "analysis.sweep.inputs": "count",
    "analysis.sweep.self_s": "s",
    "analysis.enumerate.self_s": "s",
    "analysis.bfs_oracle.self_s": "s",
    "analysis.convergent_polys.self_s": "s",
    "analysis.irrational_series.terms_pulled": "count",
    "analysis.irrational_series.self_s": "s",
    "cli.cold_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import cfdeform from this checkout's src/, never from elsewhere."""
    if not (SRC / "cfdeform" / "__init__.py").is_file():
        die(f"no cfdeform package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cfdeform

    if Path(cfdeform.__file__).resolve().parent != (SRC / "cfdeform").resolve():
        die(f"imported cfdeform from {cfdeform.__file__}, not from {SRC}")
    return cfdeform


def prepare(workload: str, seed: int) -> dict:
    """Everything before the first timed operation: import, the captured CLI
    outputs, and the operations with their inputs."""
    import_package()
    import workloads

    expected = workloads.load_cli_expected() if workload == "cli" else None
    ops = workloads.make_ops(workload, seed, ROOT, expected)
    return {"workloads": workloads, "expected": expected, "ops": ops}


# ---------------------------------------------------------------------------
# Speed reference


CAL_X = ref.rational_at_depth(random.Random("calibration"), 60)


def calibrate() -> float:
    """Seconds the machine takes right now for a fixed computation: the
    benchmark's own (p,1;1,0) walk and q-tower of one rational of term sum
    60, best of CAL_REPS.  It never calls the package, so changes to the
    package cannot move it."""
    perf = time.perf_counter
    best = float("inf")
    for _ in range(CAL_REPS):
        t0 = perf()
        ref.poly_pair(ref.SZERO, CAL_X)
        ref.q_tower(CAL_X)
        best = min(best, perf() - t0)
    return best


def at_reference_speed(elapsed: float, cal_before: float, cal_after: float) -> float:
    """``elapsed`` rescaled to the reference machine's speed, judged by the
    speed reference timed right before and right after it."""
    return elapsed * CAL_REF_S / ((cal_before + cal_after) / 2)


# ---------------------------------------------------------------------------
# The timed loop


def measure(ops, seconds: float, tracer=None, calibrated: bool = False) -> dict:
    """Run the operations in order, in passes, until they have been busy
    for ``seconds`` (whole passes only; one pass when ``seconds`` is 0).

    Each result is checked right after its operation returns, outside the
    timed region, and then dropped.  With ``calibrated``, the speed
    reference is timed before every operation and after the last one, and
    ``scaled[i]`` lists operation i's times at reference speed, one per pass.
    """
    from workloads import CliResult

    perf = time.perf_counter
    scaled = [[] for _ in ops]
    failures, samples = [], []
    busy, passes, stdout_bytes = 0.0, 0, 0
    wall0 = perf()
    cal = calibrate() if calibrated else None
    cals = [cal] if calibrated else []
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                span = tracer.begin_op()
            t0 = perf()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is a result to report
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf()
            if tracer is not None:
                tracer.end_op(op.kind, t0, t1)
                if op.trace_file is not None:
                    merge_child(tracer, op.trace_file, span)
            samples.append(t1 - t0)
            busy += t1 - t0
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if isinstance(result, CliResult):
                stdout_bytes += len(result.stdout)
            if error is not None:
                failures.append({"op": op.label, "error": error})
            del result
            if calibrated:
                cal_before, cal = cal, calibrate()
                cals.append(cal)
                scaled[i].append(at_reference_speed(t1 - t0, cal_before, cal))
        passes += 1
        if busy >= seconds or perf() - wall0 > MAX_WALL_S:
            break
    return {
        "scaled": scaled,
        "cal_s": statistics.median(cals) if cals else None,
        "samples": samples,
        "failures": failures,
        "busy": busy,
        "passes": passes,
        "stdout_bytes": stdout_bytes,
    }


def merge_child(tracer, path: Path, span: int):
    try:
        with open(path, encoding="utf-8") as fh:
            snap = json.load(fh)
    except FileNotFoundError:
        return
    path.unlink()
    tracer.merge(snap, span)


def peak_rss_mb(workload: str) -> float:
    """Peak resident set in MB: the largest child for cli, otherwise the
    larger of the benchmark process and its pool workers."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload == "cli":
        return children / 1024
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children) / 1024


def median_wall(cmd: list[str], count: int, env=None, calibrated: bool = False) -> float:
    """Median wall time of ``count`` runs of ``cmd``; with ``calibrated``,
    each at reference speed."""
    from workloads import run_cli

    times = []
    cal = calibrate() if calibrated else None
    for _ in range(count):
        t0 = time.perf_counter()
        res = run_cli(cmd, ROOT, env)
        elapsed = time.perf_counter() - t0
        if res.code != 0:
            die(f"{' '.join(cmd)} exited with {res.code}: {res.stderr.decode(errors='replace')}")
        if calibrated:
            cal_before, cal = cal, calibrate()
            elapsed = at_reference_speed(elapsed, cal_before, cal)
        times.append(elapsed)
    return statistics.median(times)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time, at reference speed, of fresh processes that start,
    import and generate the operations' inputs, then exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    return median_wall(cmd, SETUP_PROBES, calibrated=True)


# ---------------------------------------------------------------------------
# Run context


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args) -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "src_lines": lines,
    }


def emit(context: dict, words: list[str], result: dict, detail: dict):
    OUT.mkdir(exist_ok=True)
    name = f"{context['workload']}-seed{context['seed']}-trace{context['trace']}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result, **detail}, fh, indent=1)
    print("# context " + json.dumps(context))
    for line in words:
        print("# " + line)
    print(json.dumps(result))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Modes


def run_untraced(args) -> int:
    state = prepare(args.workload, args.seed)
    workloads, ops = state["workloads"], state["ops"]
    m = measure(ops, args.seconds, calibrated=True)
    rss = peak_rss_mb(args.workload)
    setup = setup_seconds(args.workload, args.seed)

    op_s = [statistics.median(s) for s in m["scaled"]]
    op_ms = [t * 1000 for t in op_s]
    attempted, failed = len(m["samples"]), len(m["failures"])
    values = {
        "work_per_s": sum(op.work for op in ops) / sum(op_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    unit = workloads.WORK_UNITS[args.workload]
    name = args.workload
    words = [
        f"{name}: {len(ops)} operations, each timed {m['passes']} times; every timing "
        f"below is at reference speed and takes each operation's median over its passes",
        f"{name}: work_per_s = {values['work_per_s']:.6g} 1/s ({unit} per second)",
        f"{name}: op_p50_ms = {values['op_p50_ms']:.6g} ms, op_p90_ms = "
        f"{values['op_p90_ms']:.6g} ms (over {len(ops)} operations, {attempted} timings)",
        f"{name}: peak_rss_mb = {rss:.6g} MB",
        f"{name}: failed_frac = {failed / attempted:.6g} ({failed} of {attempted})",
        f"{name}: setup_s = {setup:.6g} s (median of {SETUP_PROBES} fresh processes)",
        f"{name}: the speed reference took {m['cal_s'] * 1000:.6g} ms at its median, "
        f"{CAL_REF_S * 1000:.6g} ms on the reference machine",
    ]
    words += [f"FAILED {f['op']}: {f['error']}" for f in m["failures"][:10]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metric(v, END_TO_END[k]) for k, v in values.items()},
    }
    detail = {
        "failed_frac": failed / attempted,
        "passes": m["passes"],
        "busy_s": m["busy"],
        "cal_ms": m["cal_s"] * 1000,
        "operations": [{"op": op.label, "scaled_ms": t, "ms": [x * 1000 for x in m["samples"][i::len(ops)]]}
                       for i, (op, t) in enumerate(zip(ops, op_ms))],
        "failures": m["failures"],
    }
    emit(run_context(args), words, result, detail)
    return 0 if failed == 0 else 1


def run_traced(args) -> int:
    state = prepare(args.workload, args.seed)
    workloads = state["workloads"]
    from tracer import Tracer, self_check

    # The untraced baseline is the faster of two passes, so first-run
    # effects do not show up as negative tracing overhead.
    passes = [measure(state["ops"], 0) for _ in range(2)]
    base = min(passes, key=lambda m: m["busy"])

    tracer = Tracer().install()
    problems = self_check(tracer)
    if problems:
        tracer.uninstall()
        die("tracer self-check failed: " + "; ".join(problems))
    OUT.mkdir(exist_ok=True)
    trace_dir = OUT / "children"
    trace_dir.mkdir(exist_ok=True)
    traced_ops = workloads.make_ops(args.workload, args.seed, ROOT, state["expected"], trace_dir)
    traced = measure(traced_ops, 0, tracer)
    tracer.uninstall()

    env = workloads.child_env(ROOT)
    cold_ms = median_wall([sys.executable, "-m", "cfdeform", "--version"], CLI_PROBES, env) * 1000
    import_probe = [sys.executable, "-c", "import time; t = time.perf_counter(); "
                    "import cfdeform; print(time.perf_counter() - t)"]
    import_ms = statistics.median(
        float(workloads.run_cli(import_probe, ROOT, env).stdout) * 1000 for _ in range(CLI_PROBES)
    )

    counts, self_s = tracer.counts, tracer.self_s
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            values[name] = tracer.module_self_s(key) if key == "contfrac" else self_s.get(key, 0.0)
        else:
            values[name] = counts.get(name, 0)
    values["cli.cold_start_ms"] = cold_ms
    values["cli.import_ms"] = import_ms
    values["cli.stdout_bytes"] = traced["stdout_bytes"] if args.workload == "cli" else 0
    values["trace.overhead_ratio"] = traced["busy"] / base["busy"]

    passes.append(traced)
    failures = [f for m in passes for f in m["failures"]]
    attempted = sum(len(m["samples"]) for m in passes)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    words = [f"{args.workload}: {name} = {values[name]:.6g} {unit}"
             for name, unit in PER_LAYER.items()]
    words.append(f"{args.workload}: {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}"
                 + (f" ({tracer.dropped_spans} dropped)" if tracer.dropped_spans else ""))
    words += [f"FAILED {f['op']}: {f['error']}" for f in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: metric(v, PER_LAYER[k]) for k, v in values.items()},
    }
    detail = {"untraced_busy_s": base["busy"], "traced_busy_s": traced["busy"],
              "operations": [{"op": op.label, "traced_ms": t * 1000}
                             for op, t in zip(traced_ops, traced["samples"])],
              "failures": failures, "all_counts": dict(counts),
              "all_self_s": dict(self_s)}
    emit(run_context(args), words, result, detail)
    return 0 if not failures else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            die(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    for name, res in results.items():
        cells = ", ".join(f"{m} = {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
        print(f"# {name}: {cells}, failed_frac = {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cfdeform benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.setup_probe:
            die("--setup-probe needs a single workload")
        return run_all(args)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        return 0
    if args.seconds < 1:
        die("--seconds must be at least 1")
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
