"""Run one toriceig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ritz --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from `src/`.  The
workload runs as a closed loop, one client and one operation at a time, in
whole passes over its operations for `--seconds` (`run_for`): at least
MIN_PASSES, and another only while it is expected to end in time.  Every
operation's output is checked against an oracle.  With `--trace 0` the
end-to-end metrics are printed; with `--trace 1` the per-layer metrics of a
traced run.  The last line of standard output is one JSON object; a longer
report is written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402
from perfbench import OUT, ROOT  # noqa: E402

WORKLOADS = ("ritz", "lattice", "moment", "cli")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 2  # every operation's median rests on two passes at least
TAIL_BEYOND = 10  # op_tail_s leaves at least this many samples above it
# Added to every accuracy metric, so that an exact result reads 1e-10 rather
# than 0 and round-off below 1e-10 cannot read as a regression.
ACCURACY_FLOOR = 1e-10

# Printed and kept in the report but left out of the result line: on a small
# shared host the latency of a sub-second operation varies by about a
# quarter from run to run, which is the largest bound a result metric may have.
REPORT_ONLY = ("op_tail_s",)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "max_abs_err": "abs",
    "bound_violation": "abs",
    "pass_frac": "ratio",
    "peak_rss_mib": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment --------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# Every run is single-threaded, as ROADMAP item 1 asks ("the median of
# several repeats on single-threaded runs"): toriceig's default pool of
# os.cpu_count() threads holds the GIL, and on a 2-vCPU shared host it made
# bound_report on the Hirzebruch-type polygon 1.6x slower and its spread over
# calls 2.7x wider (IQR/median 0.62 against 0.23, interleaved in one process).
SINGLE_THREAD = {
    "TORIC_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def single_thread() -> dict:
    """Set one worker and one BLAS thread, before numpy is imported; child
    processes inherit the setting."""
    os.environ.update(SINGLE_THREAD)
    return dict(SINGLE_THREAD)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(caps: dict) -> dict:
    import numpy
    import scipy

    parallel = sys.modules.get("toriceig.parallel")
    workers = parallel.worker_count() if parallel and hasattr(parallel, "worker_count") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "toric_worker_count": workers,
        "blas_threads": blas_threads(),
        "TORIC_THREADS": os.environ.get("TORIC_THREADS"),
        "thread_caps": caps,
        "machine": platform.machine(),
    }


# -- set-up and import probes -------------------------------------------------


def setup_seconds(workload: str, seed: int) -> list:
    """Fresh-interpreter set-up times: start to `import toriceig` plus the
    seeded inputs made and parsed."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, env=perfbench.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return out


IMPORT_NAMES = {
    "import.toriceig_s": "toriceig",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_linalg_s": "scipy.linalg",
}


def import_seconds() -> tuple:
    """Cumulative import times from `python -X importtime`, median of runs;
    a module that is never imported reads 0 and is listed as absent."""
    samples = {key: [] for key in IMPORT_NAMES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import toriceig"],
            capture_output=True, text=True, env=perfbench.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for key, module in IMPORT_NAMES.items():
            samples[key].append(cumulative.get(module))
    values, absent = {}, []
    for key, vals in samples.items():
        if any(v is None for v in vals):
            values[key] = 0.0
            absent.append(IMPORT_NAMES[key])
        else:
            values[key] = statistics.median(vals)
    return values, absent


# -- passes -------------------------------------------------------------------


def run_for(seconds: float, one_pass, at_least: int) -> list:
    """Call one_pass(k) for k = 0, 1, ... for `seconds`: at least `at_least`
    times, and again only while a pass of the mean length so far would end
    in time."""
    start = time.perf_counter()
    passes = []
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append(one_pass(len(passes)))


def run_op(op, traced_to=None):
    from perfbench.workloads import Outcome, run_cli

    gc.collect()
    start = time.perf_counter()
    try:
        result = op.call() if traced_to is None else run_cli(op.argv, traced_to)
    except Exception as exc:  # the program failed: count it, keep measuring
        return time.perf_counter() - start, Outcome(False, {}, note=f"raised {exc!r}")
    seconds = time.perf_counter() - start
    try:
        outcome = op.verify(result)
    except Exception as exc:  # output unreadable or incomplete
        outcome = Outcome(False, {}, note=f"check raised {exc!r}")
    return seconds, outcome


def run_pass(wl, tracer=None, trace_dir=None) -> dict:
    """One pass over the workload's operations.  With a tracer, in-process
    calls are traced by it and CLI calls by the traced launcher, and each
    operation is called once, so that layer metrics are per call of every
    operation, as wall_s is."""
    from perfbench import tracing

    records = []  # (operation, seconds, outcome)
    child_files = []
    if tracer is not None:
        tracer.reset()
    for i, op in enumerate(wl.ops):
        for j in range(1 if tracer is not None else op.repeat):
            traced_to = None
            if tracer is not None and op.argv is not None:
                traced_to = trace_dir / f"op{i}-{j}.json"
                child_files.append(traced_to)
            seconds, outcome = run_op(op, traced_to)
            records.append((op.name, seconds, outcome))
    result = {"records": records, "wall": one_call_each(records)}
    if tracer is not None:
        spans = tracer.records()
        counters = [dict(tracer.counters)]
        absent = set(tracer.absent)
        for path in child_files:
            if not path.exists():  # the call died before writing its spans
                continue
            child = tracing.load_records(path)
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, t] for n, s, e, p, t in child["spans"]]
            counters.append(child["counters"])
            absent.update(child["absent"])
        result["spans"] = spans
        result["counters"] = tracing.merge_counters(counters)
        result["absent"] = sorted(absent)
    return result


# -- metrics ------------------------------------------------------------------


def tail(samples: list) -> tuple:
    """(value, percentile): the highest sample with TAIL_BEYOND samples
    strictly above its rank."""
    ordered = sorted(samples)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def op_medians(records) -> dict:
    """Each operation's median latency over all its calls."""
    per_op = {}
    for name, seconds, _out in records:
        per_op.setdefault(name, []).append(seconds)
    return {name: statistics.median(samples) for name, samples in per_op.items()}


def one_call_each(records) -> float:
    """Time of one call of every operation: the sum of their medians."""
    return sum(op_medians(records).values())


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(passes: list, setup: list) -> tuple:
    records = [r for p in passes for r in p["records"]]
    latencies = [seconds for _name, seconds, _out in records]
    per_op = op_medians(records)
    failed = sum(1 for *_x, out in records if not out.ok)
    errors = [out.abs_err for *_x, out in records if out.abs_err is not None]
    violations = [out.violation for *_x, out in records if out.violation is not None]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op.values()),
        "op_p50_s": statistics.median(per_op.values()),
        "op_tail_s": tail_value,
        "max_abs_err": ACCURACY_FLOOR + max(errors, default=0.0),
        "bound_violation": ACCURACY_FLOOR + max([0.0, *violations]),
        "pass_frac": 1.0 - failed / len(records),
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-interpreter set-ups",
        "wall_s": f"one call of each operation: the sum of their medians over {len(passes)} passes",
        "op_p50_s": f"median over {len(per_op)} operations of each one's median latency",
        "op_tail_s": f"p{tail_pct:.1f} of {len(latencies)} samples, {TAIL_BEYOND} beyond it",
        "max_abs_err": f"{ACCURACY_FLOOR:g} + max |result - exact| over {len(errors)} closed-form results",
        "bound_violation": f"{ACCURACY_FLOOR:g} + max(0, exact - lambda1T) over {len(violations)} Ritz values",
        "pass_frac": f"{len(records) - failed} of {len(records)} operations within tolerance",
        "peak_rss_mib": "peak resident memory of this process or any child",
    }
    return metrics, notes, len(records), failed


def cli_main_seconds(cli) -> float:
    """Median time of toriceig.cli.main(argv) called in this (warm) process,
    over the argument lists of the `cli` workload."""
    import toriceig.cli

    def call(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            toriceig.cli.main(argv)
            return time.perf_counter() - start

    argvs = [op.argv for op in cli.ops]
    for argv in argvs:
        call(argv)
    return statistics.median(call(argv) for argv in argvs)


def per_layer(wl, cli, untraced: list, traced: list) -> tuple:
    from perfbench import tracing

    records = [r for p in untraced + traced for r in p["records"]]
    failed = sum(1 for *_x, out in records if not out.ok)
    per_pass = [tracing.layer_metrics(p["spans"], p["counters"]) for p in traced]
    metrics = {}
    for key in per_pass[0]:
        # counts repeat exactly from pass to pass; keep them whole numbers
        pick = statistics.median if tracing.PER_LAYER[key][0] == "s" else statistics.median_low
        metrics[key] = pick(m[key] for m in per_pass)
    imports, missing_modules = import_seconds()
    metrics.update(imports)
    metrics["cli.main_s"] = cli_main_seconds(cli)
    metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced
    )
    absent = sorted(set(traced[0]["absent"]) | set(missing_modules))
    notes = {
        "passes": f"{len(untraced)} untraced and {len(traced)} traced; values are per traced pass (median)",
        "polytope.candidates": "computed from the bounding box at each k, not counted by the program",
        "absent": absent,
    }
    ordered = {key: metrics[key] for key in tracing.PER_LAYER}
    return ordered, notes, len(records), failed


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = single_thread()
    try:
        perfbench.use_checkout_src()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of a toriceig checkout", file=sys.stderr)
        return 2
    import toriceig

    from perfbench import tracing, workloads

    if not Path(toriceig.__file__).resolve().is_relative_to(perfbench.SRC):
        print(f"perfbench: imported toriceig from {toriceig.__file__}, not the checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = setup_seconds(args.workload, args.seed) if args.trace == 0 else []
    wl = workloads.build(args.workload, args.seed, OUT)
    by_name = {op.name: op for op in wl.ops}
    for name in wl.warmup:
        run_op(by_name[name])

    if args.trace == 0:
        measured = run_for(args.seconds, lambda _k: run_pass(wl), MIN_PASSES)
        passes = len(measured)
        metrics, notes, attempted, failed = end_to_end(measured, setup)
        units = END_TO_END
        op_passes = measured
    else:
        untraced = run_for(args.seconds / 2, lambda _k: run_pass(wl), 1)
        trace_root = OUT / f"trace-{wl.name}-seed{args.seed}"
        tracer = tracing.Tracer().install()

        def traced_pass(k):
            trace_dir = trace_root / f"pass{k}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            return run_pass(wl, tracer, trace_dir)

        try:
            traced = run_for(args.seconds / 2, traced_pass, 1)
        finally:
            tracer.uninstall()
        passes = len(untraced) + len(traced)
        with open(trace_root.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"passes": [p["spans"] for p in traced]}, fh)
        cli = wl if wl.name == "cli" else workloads.build("cli", args.seed, OUT)
        metrics, notes, attempted, failed = per_layer(wl, cli, untraced, traced)
        units = {key: unit for key, (unit, _better) in tracing.PER_LAYER.items()}
        op_passes = untraced + traced

    env = environment(caps)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "transforms": {k: vars(t) for k, t in wl.transforms.items()},
        "environment": env,
        "metrics": metrics,
        "notes": notes,
        "operations": [
            [{"name": n, "seconds": s, **vars(out)} for n, s, out in p["records"]] for p in op_passes
        ],
    }
    report_path = OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"operations {attempted}  failed {failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for p in op_passes[:1]:
        for name, _s, out in p["records"]:
            if not out.ok:
                print(f"FAILED {name}: {out.note}")
    for key, value in metrics.items():
        note = notes.get(key, "") + (" (report only)" if key in REPORT_ONLY else "")
        print(f"  {key:30s} {value:<24.12g} {units[key]:14s} {note}")
    for key in ("passes", "absent"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    print(f"report {report_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
            if key not in REPORT_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
