#!/usr/bin/env python3
"""Layered benchmark of equibox's exact and numerical routes.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root; the package is imported from ./src. With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it runs
one untraced pass, then one pass with every layer's public functions
wrapped in spans (see layers.py), and prints the per-layer metrics and
the tracing overhead. The last line of stdout is the result object; the
line before it holds the run's metadata. Both are also written, with the
spans of a traced run, under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact", "grid-solve", "cloud-solve")

# fresh-process samples per run; each metric reports their median. CLI
# cold start gets more: its spread across runs is checked, set-up's is not
SETUP_SAMPLES = 3
CLI_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="orders the exact ops and shuffles the cloud's points; "
                        "neither changes the work")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring budget: passes repeat while they fit in it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--measure-seed", type=int, default=None,
                   help="measure generator seed (default: grid 7, cloud 11, "
                        "as in criteria 7 and 8)")
    p.add_argument("--smoke", action="store_true", help="tiny sizes")
    p.add_argument("--self-test", action="store_true",
                   help="run every workload in smoke mode and check the "
                        "emitted metric names against BENCHMARK.json")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def require_source():
    """Import equibox from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "equibox", "__init__.py")):
        sys.stderr.write("perfbench: no equibox source under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import equibox

    if not os.path.abspath(equibox.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: equibox imported from %s, not from %s\n"
                         % (equibox.__file__, SRC))
        sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


# -- metadata ------------------------------------------------------------


def cpu_ticks():
    """Idle and steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            f = fh.readline().split()
    except OSError:
        return None
    return {"idle": int(f[4]), "steal": int(f[8]),
            "total": sum(int(x) for x in f[1:9])}


def source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "equibox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info():
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln and ln.rstrip().endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def metadata(args, measure_seed):
    from importlib import metadata as md

    from equibox import gf2poly

    try:
        with open("/proc/meminfo") as fh:
            mem_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        mem_kb = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "measure_seed": measure_seed,
        "git_commit": git_commit(), "src_sha256": source_sha256(),
        "nproc": os.cpu_count(), "mem_total_kb": mem_kb,
        "python": sys.version.split()[0],
        "numpy": md.version("numpy"), "scipy": md.version("scipy"),
        "blas": blas_info(), "gf2_backend": gf2poly.active_backend(),
    }


# -- determinism across runs --------------------------------------------


def check_repeat(key, record):
    """Compare record with the last run of the same code and inputs.

    Returns a list of mismatches; the first run of a key stores it.
    """
    path = os.path.join(OUT, "state.json")
    state = {}
    if os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
    seen = state.setdefault(key, {})
    problems = ["%s: %r now, %r before" % (k, v, seen[k])
                for k, v in record.items() if k in seen and seen[k] != v]
    seen.update({k: v for k, v in record.items() if k not in seen})
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


# -- one run -------------------------------------------------------------


def make_workload(args, size, measure_seed):
    import workloads as w

    if args.workload == "exact":
        return w.ExactWorkload(size, args.seed), w.EXACT[size].cli
    wl = w.SolveWorkload(args.workload, size, measure_seed, args.seed, w.SOLVER_SEED)
    return wl, w.SOLVE[args.workload][size].cli


def timed_pass(wl, tracer=None):
    res = wl.run_pass(tracer)
    return res, sum(res.stage_seconds(s) for s in wl.timed_stages)


def run(args):
    import layers
    import workloads as w

    measure_seed = (None if args.workload == "exact"
                    else args.measure_seed if args.measure_seed is not None
                    else w.MEASURE_SEED[args.workload])
    size = "smoke" if args.smoke else "full"
    ticks_before = cpu_ticks()
    ops = []  # (name, seconds, error, wrong)

    wl, cli_argv = make_workload(args, size, measure_seed)
    setup, cli_times, cli_layers = [], [], []

    def fresh_processes(n_setup, n_cli):
        for _ in range(n_setup):
            dt, err = w.setup_child(ROOT, args.workload, size, measure_seed, args.seed)
            ops.append(("setup", dt or 0.0, err, False))
            if not err:
                setup.append(dt)
        for _ in range(n_cli):
            if args.trace:
                try:
                    cli_layers.append(w.cli_layers(ROOT, cli_argv))
                    ops.append(("cli probe", sum(cli_layers[-1]), "", False))
                except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
                    ops.append(("cli probe", 0.0, str(exc), False))
                continue
            dt, err = w.cli_cold(ROOT, cli_argv)
            ops.append(("cli " + " ".join(cli_argv), dt, err, bool(err)))
            if not err:
                cli_times.append(dt)

    # host speed drifts over seconds: samples are split before and after
    # the passes, so that their medians span the run
    if not args.trace:
        fresh_processes(SETUP_SAMPLES // 2, CLI_SAMPLES // 2)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(timed_pass(wl))
        elapsed = time.perf_counter() - t_start
        if args.trace or elapsed + elapsed / len(passes) > args.seconds:
            break

    tracer = None
    if args.trace:
        from equibox import certifier, dickson, gf2poly, measures, repdecomp, solver

        tracer = layers.instrument(
            (gf2poly, dickson, certifier, repdecomp, measures, solver))
        if args.workload == "exact":
            def on_clear(info):
                tracer.counts["certifier.cache_hits"] += info.hits
                tracer.counts["certifier.cache_misses"] += info.misses
            wl.on_clear = on_clear
        try:
            passes.append(timed_pass(wl, tracer))
        finally:
            tracer.restore()
            wl.on_clear = None

    for res, _ in passes:
        ops.extend((op.name, op.seconds, op.error, op.wrong) for op in res.ops)

    if args.trace:
        fresh_processes(0, 3)
    else:
        fresh_processes(SETUP_SAMPLES - SETUP_SAMPLES // 2,
                        CLI_SAMPLES - CLI_SAMPLES // 2)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [name + ": " + err for name, _, err, wrong in ops if wrong]
    reports = {res.report for res, _ in passes if res.report}
    if len(reports) > 1:
        problems.append("solve reports differ between passes of one run")
    record = {}
    if reports:
        record["report_sha256"] = w.sha256_text(reports.pop())
    if tracer is not None:
        converged = not any(op.error for op in passes[-1][0].ops if op.stage == "solve")
        layer = layers.layer_metrics(tracer, converged)
        record.update({k: layer[k] for k in layers.DETERMINISTIC})
    os.makedirs(OUT, exist_ok=True)
    key = "|".join([args.workload, size, source_sha256(), str(measure_seed),
                    json.dumps(wl.fingerprint(), sort_keys=True)])
    problems += ["not repeated across runs: " + p for p in check_repeat(key, record)]

    if args.trace:
        untraced_s, traced_s = passes[0][1], passes[-1][1]
        stage = {s: passes[0][0].stage_seconds(s)
                 for s in ("tables", "deep", "crosscheck", "probe")}
        values = dict(layer)
        values.update({
            "cli.python_start_s": median([c[0] for c in cli_layers]),
            "cli.import_s": median([c[1] for c in cli_layers]),
            "cli.command_s": median([c[2] for c in cli_layers]),
            "stage.tables_s": stage["tables"],
            "stage.deep_s": stage["deep"],
            "stage.crosscheck_s": stage["crosscheck"],
            "stage.probe_s": stage["probe"],
            "trace.untraced_pass_s": untraced_s,
            "trace.traced_pass_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
            "trace.spans": len(tracer.spans),
        })
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]}
                   for k, v in values.items()}
    else:
        values = {
            "setup_s": median(setup),
            "pass_s": median([dt for _, dt in passes]),
            "cli_cold_s": median(cli_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    ticks_after = cpu_ticks()
    meta = metadata(args, measure_seed)
    meta.update({
        "cpu_ticks_before": ticks_before, "cpu_ticks_after": ticks_after,
        "samples": {"setup_s": len(setup), "cli": len(cli_times or cli_layers),
                    "pass_s": len(passes) - (1 if args.trace else 0)},
        "ops": [{"name": n, "seconds": s, "error": e} for n, s, e, _ in ops],
        "deterministic": record, "problems": problems,
    })
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for _, _, err, _ in ops if err),
        "metrics": metrics,
    }
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.json")
    for p in problems:
        sys.stderr.write("perfbench: %s\n" % p)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


# -- fresh-process set-up and self-test ----------------------------------


def setup_child(args):
    """Time the imports and measure build a run of this workload needs."""
    t0 = time.perf_counter()
    if args.workload == "exact":
        from equibox import certifier, dickson, gf2poly, repdecomp  # noqa: F401
    else:
        import workloads as w
        from equibox import solver  # noqa: F401

        seed = args.measure_seed if args.measure_seed is not None \
            else w.MEASURE_SEED[args.workload]
        w.build_measure(args.workload, "smoke" if args.smoke else "full",
                        seed, args.seed)
    print(time.perf_counter() - t0)


def self_test():
    """Every workload, traced and not, at smoke size: names and units must
    match BENCHMARK.json and every output must check out."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if {wk["name"] for wk in bench["workloads"]} != set(WORKLOADS):
        print("FAIL workloads differ from BENCHMARK.json")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no result line (exit %d): %s"
                                % (proc.returncode, proc.stderr.strip()[-300:]))
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    problems.append("metric names or units differ: %s"
                                    % sorted(set(got.items()) ^ set(declared[trace].items())))
                if not result["correct"]:
                    problems.append("incorrect: " + proc.stderr.strip()[-300:])
            status = "FAIL" if problems else "ok"
            failures += bool(problems)
            print("%-4s %-11s trace=%d %s" % (status, workload, trace,
                                              "; ".join(problems)), flush=True)
    return 1 if failures else 0


def main():
    args = parse_args()
    require_source()
    if args.self_test:
        sys.exit(self_test())
    if args.setup_child:
        setup_child(args)
        return
    run(args)


if __name__ == "__main__":
    main()
