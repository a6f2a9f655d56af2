"""medner benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload train_quickstart --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Every operation is an in-process `medner.cli.main(argv)` call on files
generated from --seed. With --trace 0 the run sets up at least three
times and for at least a second (the median is setup_s), then repeats
the workload's timed pass while another one fits in --seconds (at least
one pass) and reports the median of each pass metric. With --trace 1 it sets up and passes once untraced, then
once under the tracer, and reports the per-layer metrics and the tracing
overhead. The last stdout line is the JSON result; the full record,
with environment and output digests, goes to .bench_work/BENCH_<name>.json.
See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: 2 threads measured no faster
# than 1 at d_model 64 and cost twice the CPU.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

# set up at least 3 times and for at least 1 s; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "tokens_per_s": "1/s", "peak_rss_mb": "MB"}
WORK = ROOT / ".bench_work"
# sources whose change may change the outputs; digests are compared per fingerprint
FINGERPRINT_PATHS = ("src/medner", "bench", "configs/quickstart.ini")


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def timed_run(wl, seconds: float) -> tuple[dict, dict]:
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(_timed(wl.setup)[0])
    passes = []
    elapsed = 0.0
    while not passes or elapsed * (len(passes) + 1) / len(passes) <= seconds:
        took, values = _timed(wl.run_pass)
        passes.append(values)
        elapsed += took
    detail = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    detail["setup_s"] = statistics.median(setups)
    detail["peak_rss_mb"] = harness.peak_rss_mb()
    samples = {"setup_s": setups, "passes": passes}
    return {k: detail[k] for k in END_TO_END}, {"detail": detail, "samples": samples}


def traced_run(wl) -> tuple[dict, dict]:
    from tracer import Tracer

    def once():
        wl.setup()
        return wl.run_pass()

    untraced, _ = _timed(once)
    with Tracer() as tracer:
        traced, _ = _timed(once)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    return metrics, {"absent": tracer.absent}


def run_workload(args) -> int:
    try:
        import medner.cli
    except ImportError as exc:
        print(f"error: cannot import medner from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(medner.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: medner was imported from {medner.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not workloads.QUICKSTART_INI.is_file():
        print(f"error: missing {workloads.QUICKSTART_INI}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    history = WORK / "digests.json"
    key = (f"{args.workload}|seed={args.seed}|"
           f"{harness.code_fingerprint(str(ROOT), FINGERPRINT_PATHS)}")
    session = harness.Session(earlier=harness.load_history(str(history), key))
    wl = workloads.WORKLOADS[args.workload](session, args.seed)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            metrics, extra = traced_run(wl)
        else:
            metrics, extra = timed_run(wl, args.seconds)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
    harness.save_history(str(history), key, session)

    units = END_TO_END
    if args.trace:
        from tracer import metric_units

        units = metric_units()
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": harness.environment(args.seed, BLAS_THREADS),
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": session.failed / session.attempted,
        "problems": session.problems[:50],
        "digests": session.digest_record(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        **extra,
    }
    out = WORK / f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    _print_report(record)
    print(f"record -> {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": record["metrics"],
    }))
    return 0


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['error_rate']:.4g}")
    print(f"  python {env['python']}  numpy {env['numpy']}  blas {env['blas_name']} "
          f"{env['blas_version']}  blas_threads {env['blas_threads_reported']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']}")
    if "detail" in record:
        passes = len(record["samples"]["passes"])
        for name, value in record["detail"].items():
            unit = workloads.UNITS.get(name) or END_TO_END[name]
            print(f"  {name:24s} {value:14.6g} {unit}")
        print(f"  (medians over {passes} pass(es) and "
              f"{len(record['samples']['setup_s'])} set-ups)")
    else:
        metrics = record["metrics"]
        for name, m in metrics.items():
            span = name.rsplit(".", 1)[0]
            if metrics.get(f"{span}.calls", {}).get("value", 1):
                print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
        if record.get("absent"):
            print(f"  absent: {', '.join(record['absent'])}")
    for label, d in record["digests"].items():
        print(f"  digest {label:16s} {d['sha256'][:16]}  x{d['repetitions']}  "
              f"{'repeats' if d['repeats'] else 'DIFFERS'}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
