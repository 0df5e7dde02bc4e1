"""The evosteer benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Workloads (see workloads.py and README.md):
transport-semilinear, transport-integro, linear-oracle.

``--seconds`` fixes how many instances the run measures (the budget divided
by the workload's seed-commit instance time), so a given budget always
measures the same work.  Instances run in a closed loop, one at a time in
this process, each from its generated INI file to its written report.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the instances once untraced and once with spans
around every layer call, and reports the per-layer metrics, the tracing
overhead and the share of traced time the top-level spans cover.

Every instance passes the correctness gate or counts as failed.  A full
record (machine, seed, per-instance fingerprints, spans) is written under
``.bench_out/``; the last line of standard output is the JSON summary.  The
exit code is 0 only when every instance passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import evosteer
from evosteer import config
config.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def import_package():
    if not (SRC / "evosteer" / "__init__.py").is_file():
        sys.exit(f"bench: no evosteer package under {SRC}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import evosteer
    if Path(evosteer.__file__).resolve().parent != (SRC / "evosteer").resolve():
        sys.exit(f"bench: imported evosteer from {evosteer.__file__}, not {SRC}")


def setup_seconds(ini: Path) -> float:
    """``import evosteer`` plus the first ``load_config``, in a fresh
    interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(ini)],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _openblas_threads():
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    blas = _openblas_threads()
    return {"cpu_model": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": blas,
            "blas_threads_within_nproc": blas is None or blas <= nproc,
            "processes": 1, "platform": platform.platform()}


def run_pass(instances, inis, workdir: Path, tracer=None) -> list:
    """Drive every instance once, gate it and remove its outputs; the gate
    and the clean-up run outside the instance's timed interval."""
    from workloads import check, drive
    records = []
    for i, (inst, ini) in enumerate(zip(instances, inis)):
        if tracer is not None:
            tracer.instance = i
        seconds, code, summary = drive(inst.command, ini)
        outdir = workdir / str(i)
        rec = {"instance": i, "dim": inst.dim, "seconds": seconds,
               "summary": summary, **check(inst, outdir, code)}
        if not rec["ok"]:
            print(f"bench: instance {i} failed the gate: {rec['problems']}",
                  file=sys.stderr)
        records.append(rec)
        shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
    return records


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (``metrics`` holds
    name -> (value, unit))."""
    workdir = OUT / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances, inis = [], []
    for i in range(workload.instance_count(seconds)):
        inst = workload.instance(seed, i, workdir / str(i))
        ini = workdir / f"{i}.ini"
        ini.write_text(inst.ini)
        instances.append(inst)
        inis.append(ini)

    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "instances": len(instances),
              "machine": machine()}
    if not trace:
        # the first interpreter start warms the file cache and writes .pyc
        setup = [setup_seconds(inis[0]) for _ in range(SETUP_REPEATS + 1)][1:]
        records = run_pass(instances, inis, workdir)
        times = [r["seconds"] for r in records]
        record["setup_samples"] = setup
        record["solve_s_p50"] = statistics.median(times)
        metrics = {
            "wall_s": (sum(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
            "picard_iterations": (sum(r["iterations"] for r in records), "count"),
        }
    else:
        from spans import Tracer, layer_metrics
        untraced = run_pass(instances, inis, workdir)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(instances, inis, workdir, tracer)
        records = untraced + traced
        wall_untraced = sum(r["seconds"] for r in untraced)
        wall_traced = sum(r["seconds"] for r in traced)
        calls, incl, own, top = tracer.totals()
        metrics = layer_metrics(calls, incl, own, tracer.work)
        record["span_totals"] = {name: {"calls": calls[name], "inclusive_s": incl[name],
                                        "self_s": own[name]} for name in calls}
        record.update(wall_s_untraced=wall_untraced, wall_s_traced=wall_traced)
        metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
        metrics["trace.top_level_share"] = (top / wall_traced, "fraction")
        record["spans_file"] = _write_spans(tracer, workload.name, seed).name
        record["spans"] = len(tracer.spans)
    failed = sum(1 for r in records if not r["ok"])
    record.update(metrics=metrics, records=records, attempted=len(records),
                  failed=failed, failed_fraction=failed / len(records),
                  solve_samples=len(instances))
    return record


def _write_spans(tracer, name: str, seed: int) -> Path:
    path = OUT / f"{name}-seed{seed}.spans.json"
    origin = tracer.spans[0].start if tracer.spans else 0.0
    rows = [[s.name, s.start - origin, s.end - origin, s.parent, s.instance]
            for s in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent",
                                           "instance"], "spans": rows}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, (value, unit) in record["metrics"].items():
        print(f"{name:34s} {value:.6g} {unit}")
    if "solve_s_p50" in record:
        print(f"{'solve_s_p50':34s} {record['solve_s_p50']:.6g} s "
              f"(median of {record['solve_samples']} instances)")
    print(f"{'failed_fraction':34s} {record['failed_fraction']:.6g} fraction")
    print(f"record {path.relative_to(ROOT)}")
    ok = record["failed"] == 0
    print(json.dumps({"correct": ok, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in record["metrics"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
