"""Benchmark of extriang: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload five-term --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the program from its
`src/` directory.  With `--trace 0` it repeats whole rounds of the
workload's operations until `--seconds` of operation time have passed and
reports the end-to-end metrics; with `--trace 1` it runs one round with
every layer function wrapped (see spans.py) and reports the per-layer
metrics.  Outputs are checked after each round; an operation fails when it
raises or its output breaks a check.  Exits 2 without a result when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
SEGMENT_S = 0.5  # operation time between two calibration samples
CAL_REF_S = 0.02  # reference duration of one calibration sample

# one thread per process: the program does integer numpy work, and idle
# BLAS threads only add noise on a small machine
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import extriang
    except ImportError as exc:
        raise ProgramMissing(f"cannot import extriang from {SRC}: {exc}") from exc
    if not Path(extriang.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"extriang imported from {extriang.__file__}, not from {SRC}")


def calibration_sample() -> float:
    """Seconds a fixed piece of interpreter and small-array work takes now.

    The speed of a shared machine can change by up to a factor of two
    within seconds, and the program's operations change with it.  Every
    measured time is scaled by CAL_REF_S over the mean of the calibration
    samples taken around it, so that figures read as if the machine always
    ran this loop in CAL_REF_S seconds.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(16, dtype=np.int64).reshape(4, 4)
    seen = {}
    for i in range(4000):
        b = np.mod(a @ a + i, 7)
        seen[b.tobytes()] = i
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * CAL_REF_S / ((before + after) / 2)


def set_up(workload, tracer=None) -> None:
    import_program()
    workload.load()
    if tracer is not None:
        tracer.install()
    workload.build()


# -- child processes --------------------------------------------------------------


def in_child(fn):
    """Run fn() in a forked child; return (its JSON-able result or an
    {"error": ...} document, the child's peak RSS in KiB)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            try:
                payload = {"value": fn()}
            except Exception as exc:  # the operation failed; report it to the parent
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            data = json.dumps(payload).encode()
            with os.fdopen(write_end, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # interrupted or terminated: take the child down too, then re-raise
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0 or not data:
        return {"error": f"child exited with status {status}"}, usage.ru_maxrss
    return json.loads(data), usage.ru_maxrss


def timed_set_up(workload, tracer=None) -> float:
    """Scaled seconds of one set-up.  The calibration samples come after it,
    because the set-up itself imports numpy."""
    t0 = time.perf_counter()
    set_up(workload, tracer)
    seconds = time.perf_counter() - t0
    return scaled(seconds, calibration_sample(), calibration_sample())


def setup_sample(workload_cls, seed: int) -> float:
    """A fresh set-up, in a child forked before the program is imported."""
    out, _ = in_child(lambda: timed_set_up(workload_cls(seed, OUT)))
    if "error" in out:
        raise ProgramMissing(out["error"])
    return out["value"]


# -- measurement --------------------------------------------------------------------


def perform(workload, op, tracer):
    """(output or None, error text, seconds, peak RSS KiB of a child, trace snapshot)."""
    if workload.forked:
        def child():
            out = workload.run(op)
            return {"out": out, "trace": tracer.snapshot() if tracer else None}

        t0 = time.perf_counter()
        res, rss = in_child(child)
        dt = time.perf_counter() - t0
        if "error" in res:
            return None, res["error"], dt, rss, None
        return res["value"]["out"], None, dt, rss, res["value"]["trace"]
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # the operation failed; count it and go on
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0, 0, None
    return out, None, time.perf_counter() - t0, 0, None


def guarded(check, *args):
    """A check's result; an output too malformed to check is a problem, not a crash."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"output not checkable: {type(exc).__name__}: {exc}"]


def run_round(workload, ops, tracer) -> dict:
    """Perform and then check one round.  Returns plain data, with one time
    per operation in the order of `ops`, so a child can send it back small."""
    import spans

    seconds, scaled_s, results = [], [], []
    child_rss = 0
    trace = spans.empty_snapshot()
    cal, segment_start = calibration_sample(), 0
    for k, op in enumerate(ops):
        out, error, dt, rss, snap = perform(workload, op, tracer)
        seconds.append(dt)
        child_rss = max(child_rss, rss)
        if sum(seconds[segment_start:]) >= SEGMENT_S or k == len(ops) - 1:
            cal_next = calibration_sample()
            scaled_s += [scaled(t, cal, cal_next) for t in seconds[segment_start:]]
            cal, segment_start = cal_next, k + 1
        if snap:
            spans.merge(trace, snap)
        results.append((op, out, error))
    if tracer is not None and not workload.forked:
        trace = tracer.snapshot()
    done = [(op, out) for op, out, error in results if error is None]
    context = guarded(workload.context, done)
    if not isinstance(context, dict):
        context = {}
    failed, problems = 0, []
    for op, out, error in results:
        bad = [error] if error else guarded(workload.check, op, out, context)
        if bad:
            failed += 1
            problems.append(f"{op!r:.120}: {bad[0]}")
    round_problems = guarded(workload.check_round, done)
    return {"seconds": seconds, "scaled": scaled_s, "failed": failed,
            "problems": problems + round_problems, "round_ok": not round_problems,
            "child_rss": child_rss, "trace": trace}


def measure(workload, seconds: float, tracer) -> dict:
    """Whole rounds until `seconds` of operation time have passed (one round
    when tracing).

    A workload that keeps its state in this process runs each round in a
    child forked after set-up, so every round starts from the same caches
    and the figures do not depend on how many rounds fit.  The time of a
    round is the sum over its operations of each one's median scaled time
    across the rounds, so one operation caught by a change of machine speed
    moves the result less.
    """
    total = {"busy": 0.0, "rounds": 0, "attempted": 0, "failed": 0, "problems": [],
             "round_ok": True, "rss_kib": 0, "trace": None}
    per_op: dict[str, list[float]] = {}
    while True:
        ops = workload.round()
        if workload.forked:
            r = run_round(workload, ops, tracer)
            rss = r["child_rss"]
        else:
            res, rss = in_child(lambda: run_round(workload, ops, tracer))
            if "error" in res:
                # the round child died: every operation of the round failed
                r = {"seconds": [], "scaled": [], "failed": len(ops), "problems": [res["error"]],
                     "round_ok": False, "trace": None}
            else:
                r = res["value"]
        for op, t in zip(ops, r["scaled"]):
            per_op.setdefault(repr(op), []).append(t)
        total["busy"] += sum(r["seconds"])
        total["attempted"] += len(ops)
        total["failed"] += r["failed"]
        total["problems"] += r["problems"]
        total["rounds"] += 1
        total["round_ok"] = total["round_ok"] and r["round_ok"]
        total["rss_kib"] = max(total["rss_kib"], rss)
        total["trace"] = r["trace"]
        if tracer is not None or total["busy"] >= seconds or not r["seconds"]:
            break
    total["round_s"] = sum(statistics.median(times) for times in per_op.values())
    total["median_s"] = {op: statistics.median(times) for op, times in per_op.items()}
    return total


def run_all(names, args) -> int:
    """Every workload in turn, each in a fresh interpreter; the worst exit code."""
    codes = []
    for name in names:
        proc = subprocess.Popen([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)])
        try:
            codes.append(proc.wait())
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so in_child can stop the child it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; pick 'all' or one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, OUT)
    tracer = spans.Tracer() if args.trace else None
    try:
        setups = [] if args.trace else [setup_sample(cls, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        setups.append(timed_set_up(workload, tracer if not workload.forked else None))
    except ProgramMissing as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    if tracer is not None and workload.forked:
        tracer.install()

    m = measure(workload, args.seconds, tracer)
    done = m["attempted"] - m["failed"]
    ops_per_s = done / m["rounds"] / m["round_s"] if m["round_s"] else 0.0
    wall_rate = done / m["busy"] if m["busy"] else 0.0
    for line in m["problems"][:20]:
        print(f"problem: {line}", file=sys.stderr)
    if args.trace:
        metrics = spans.per_layer_metrics(m["trace"])
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": m["rss_kib"] / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {"correct": m["round_ok"],
              "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"result": result, "wall_s": m["busy"], "rounds": m["rounds"], "setups_s": setups,
         "median_scaled_s": m["median_s"]}, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(m["trace"], indent=1) + "\n")
    print(f"{args.workload}: {m['rounds']} rounds, {m['attempted']} operations, "
          f"{m['failed']} failed, {m['busy']:.3f} s wall ({wall_rate:.4g}/s), "
          f"{m['round_s']:.3f} s scaled per round ({ops_per_s:.4g}/s), trace={args.trace}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
