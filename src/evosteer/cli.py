"""Command line interface.

Subcommands:

* ``solve <config>``   -- full pipeline, emits trajectory.csv, control.csv
  and report.json into the output directory.
* ``certify <config>`` -- Gramians and certificate only, report.json.
* ``oracle <config>``  -- solve plus the independent reference integrator,
  emits oracle.csv and the comparison in report.json (linear problems only).
* ``selftest``         -- runs the acceptance corpus, one line per criterion.

Exit codes: 0 success; 1 targets missed or selftest failure; 2 configuration
errors, an unknown selftest criterion, an unwritable output or a report with
a NaN or infinity; 3 a Gramian floor below 1e-8; 4 non-convergence, which
still writes report.json (certificate and unconverged solve, no verdict, no CSV).
The EVOSTEER_OUTDIR environment variable, unless empty, overrides the
configured output directory.

``solve`` and ``oracle`` write ``trajectory.csv`` on the calling thread and
``control.csv`` (then ``oracle.csv``) on one worker thread beside it when
the trajectory holds more than a block's ``reports.CHUNK_VALUES`` values,
two formatter passes; smaller runs write the files one after the other.
The first worker starts only after the process is held to glibc's one
malloc arena, so no thread's arena stays resident after the command's
``malloc_trim``.  Files and messages are the same either way.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
import time

from .config import ConfigError, RunConfig, load_config
from .gramian import NotInvertibleError
from .oracle import check_linear
from .reports import (CHUNK_VALUES, build_report, emit_control, emit_trajectory,
                      ensure_outdir, write_report)
from .runner import certify, run
from .solver import NonConvergenceError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_NO_CONVERGENCE = 4

_M_ARENA_MAX = -8    # glibc's mallopt parameter (malloc.h)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs an
    order of magnitude more than parsing a command line, and a process may
    run many commands."""
    parser = argparse.ArgumentParser(
        prog="evosteer",
        description="Minimum-energy steering of impulsive delay evolution "
                    "equations with per-window target verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "certify", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the run configuration file")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock timings from the report")
    st = sub.add_parser("selftest")
    st.add_argument("--criterion",
                    help="run only the criteria whose names contain this text")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "selftest":
        return _selftest(args)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _dispatch(args, cfg)
    except NotInvertibleError as exc:
        print(f"gramian error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except NonConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:    # the only files a command touches are its outputs
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        _release_freed_memory()


def _release_freed_memory() -> None:
    """Return the heap pages the finished command freed to the OS (glibc's
    ``malloc_trim``; a no-op elsewhere).  glibc keeps freed pages resident,
    and one small block left high in the heap keeps a whole region of them,
    so a process that runs several commands would otherwise start each one
    on a heap whose resident size depends on where the last one's blocks
    happened to land."""
    libc = _libc()
    if libc is not None:
        libc.malloc_trim(0)


@functools.cache
def _libc():
    """The C library with glibc's ``malloc_trim`` and ``mallopt``, or None
    where it lacks them, loaded once per process: loading the handle costs
    far more than either call."""
    import ctypes
    libc = ctypes.CDLL(None)
    if not (hasattr(libc, "malloc_trim") and hasattr(libc, "mallopt")):
        return None
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return libc


@functools.cache
def _single_arena() -> None:
    """Keep every thread of the process on glibc's one main malloc arena
    (``mallopt(M_ARENA_MAX, 1)``), once, before the first emission worker
    starts: a worker's own arena would stay resident after
    ``malloc_trim``, 3-4 MB per process."""
    libc = _libc()
    if libc is not None:
        libc.mallopt(_M_ARENA_MAX, 1)


def _emit_csv(outdir: str, traj, control, oracle=None) -> None:
    """Write ``trajectory.csv`` on this thread and ``control.csv``, then the
    oracle's path ``oracle.csv`` if given, on one worker thread beside it,
    where the trajectory holds more than ``CHUNK_VALUES`` state values: the
    formatter's numpy calls release the GIL, but each hands it over, so the
    worker pays off only when the files take several passes; smaller runs
    write the files one after the other.  The
    worker is joined before this returns.  An error of the trajectory wins,
    as if the worker's files came after it, else the worker's is raised
    here."""
    def here():
        emit_trajectory(traj, os.path.join(outdir, "trajectory.csv"))

    def there():
        emit_control(control, os.path.join(outdir, "control.csv"))
        if oracle is not None:
            emit_trajectory(oracle, os.path.join(outdir, "oracle.csv"))

    if traj.history.size + traj.sample_stack().size <= CHUNK_VALUES:
        here()
        there()
        return
    failed = []

    def work():
        try:
            there()
        except BaseException as exc:
            failed.append(exc)

    _single_arena()
    worker = threading.Thread(target=work, name="evosteer-emit")
    worker.start()
    try:
        here()
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _dispatch(args, cfg: RunConfig) -> int:
    outdir = ensure_outdir(cfg.outdir)

    def report(result, **sections):
        write_report(os.path.join(outdir, "report.json"), build_report(
            args.command, cfg.echo, cfg.numerics, certificate=result.certificate,
            timings=None if args.no_timing else result.timings, **sections))

    if args.command == "certify":
        result = certify(cfg.problem, cfg.targets, cfg.numerics)
        report(result)
        print(f"contraction constant {result.certificate.contraction_constant:.6g} "
              f"({'<' if result.certificate.contracts else '>='} 1, "
              f"binding branch {result.certificate.binding_branch})")
        return EXIT_OK

    with_oracle = args.command == "oracle"
    if with_oracle:    # refused before the run, not after it
        check_linear(cfg.problem)
    try:
        result = run(cfg.problem, cfg.targets, cfg.numerics, with_oracle=with_oracle)
    except NonConvergenceError as exc:
        report(exc.run, solve=exc.report)
        raise

    t0 = time.perf_counter()
    _emit_csv(outdir, result.solve.trajectory, result.solve.control,
              result.oracle.trajectory if with_oracle else None)
    oracle_cmp = None
    if with_oracle:
        oracle_cmp = {"sup_distance": result.oracle_distance,
                      "defects": list(result.oracle.defects)}
    result.timings["emit_s"] = time.perf_counter() - t0
    report(result, solve=result.solve, verdict=result.verdict, oracle_cmp=oracle_cmp)

    v = result.verdict
    print(f"converged in {result.solve.iterations_text()}; "
          f"defects {['%.3e' % d for d in result.solve.per_window_defect]}; "
          f"totally controllable: {v.totally_controllable}")
    return EXIT_OK if v.totally_controllable else EXIT_FAIL


def _selftest(args) -> int:
    from .acceptance import CRITERIA, run_all
    results = run_all(only=args.criterion)
    if not results:
        print(f"config error: no criterion matches {args.criterion!r}; known: "
              f"{', '.join(name for name, _, _ in CRITERIA)}", file=sys.stderr)
        return EXIT_CONFIG
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name} ({r.elapsed:.1f}s): {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
