"""The ledger: one seeded benchmark every perf or simplicity PR is judged by.

One workload, in this process (what the driver of BENCHMARK.json runs)::

    python3 benchmarks/ledger/run.py --workload query_cold --seed 3 \\
        --seconds 4 --trace 0

prints the op-list digest, every metric by name with its unit, and as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, which also writes ``out/trace_<workload>.jsonl``).

The workload itself runs in a fresh child of that command (``--child``).
The command adopts whatever the child leaves behind — Python 3.11 never
waits for the resource tracker that the ``spawn`` context of
``MultiProcessFrontend`` starts — and returns only when every process of
the run has ended and been waited for, on every way out of the child.

Without ``--workload`` every workload runs in its own fresh subprocess,
untraced and traced.  ``--check`` runs two sets of ``--runs`` seeds per
workload and reports what the driver will judge: the spread of each
end-to-end metric within a set, the shift of its median between the sets,
and whether the count metrics of two traced runs repeat exactly.

See README.md beside this file for the glossary and the layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import spread, worsening

LEDGER = Path(__file__).resolve().parent
REPO = LEDGER.parents[1]
SOURCE = REPO / "src"
OUT = LEDGER / "out"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def _workdir(pid: int) -> Path:
    return OUT / f"run-{pid}"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"ledger: no program to measure at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import harness
    import workloads

    plan = workloads.generate(workload, seed, seconds, OUT / "streams")
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(
        f"ops sha256 {plan.digest()} "
        f"(warmup {len(plan.warmup)}, main {len(plan.main)}, "
        f"canary {len(plan.canaries)})"
    )
    workdir = _workdir(os.getpid())
    try:
        samples, end_to_end, per_layer, recorder = harness.run_workload(
            plan, seconds, trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = harness.END_TO_END
    for name, value in end_to_end.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(
        f"samples: update n={len(samples.update_s)} "
        f"query n={len(samples.query_s)} pprt n={len(samples.pprt_s)}; "
        "machine speed per phase "
        + " ".join(f"{speed:.2f}" for speed in samples.speeds)
    )
    metrics = end_to_end
    if trace:
        units = harness.PER_LAYER
        for name, value in per_layer.items():
            print(f"{name:40s} {value:16.6f} {units[name]}")
        timed = sum(
            per_layer[name] for name in harness.LAYER_SPANS.values()
        )
        print(
            f"layer self times sum to {timed:.3f} s of "
            f"{per_layer['measured_wall_s']:.3f} s measured wall"
        )
        trace_path = OUT / f"trace_{workload}.jsonl"
        recorder.write_jsonl(trace_path)
        print(f"trace: {len(recorder.spans)} spans -> {trace_path}")
        metrics = per_layer
    if samples.truncated:
        print("WARNING: main phase cut short (time budget); counts will differ")
    for problem in samples.problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": samples.failed == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# One workload, in a child that leaves no process behind
# ----------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: Orphans get this long to end by themselves before they are killed.
ORPHAN_GRACE_S = 5.0


def _children() -> list:
    """Pids of the live processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def _reap_all(clean: bool) -> None:
    """Wait until no child of this process is left.

    After a clean exit of the workload only the resource tracker is left,
    and it ends at the EOF of its pipe.  After any other exit the orphans
    are sent SIGTERM: the workers end, and the tracker, which ignores that
    signal, outlives them just long enough to unlink their semaphores.
    Whatever is left after ``ORPHAN_GRACE_S`` is killed.
    """
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing left to wait for
        if pid:
            continue
        late = time.monotonic() > deadline
        if late or not clean:
            for orphan in _children():
                try:
                    os.kill(orphan, signal.SIGKILL if late else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def run_supervised(argv: list) -> int:
    """Run ``run.py --child <argv>``; return once all its processes ended."""
    # orphans of the child are re-parented to this process, not to init
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("ledger: cannot adopt orphaned processes", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminated)
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", *argv]
    )
    try:
        return child.wait()
    finally:
        clean = child.poll() == 0
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all(clean)
        # a killed child could not remove its work directory
        shutil.rmtree(_workdir(child.pid), ignore_errors=True)


# ----------------------------------------------------------------------
# Many runs, each in a fresh subprocess
# ----------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, cwd=REPO, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {done.returncode}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
    return result


def run_all(spec: dict, seed: int, seconds: float, out) -> int:
    results = {}
    for entry in spec["workloads"]:
        workload = entry["name"]
        results[workload] = {}
        for trace in (0, 1):
            result = _spawn(workload, seed, seconds, trace)
            results[workload]["per_layer" if trace else "end_to_end"] = result
            print(
                f"== {workload} trace {trace}: attempted {result['attempted']} "
                f"failed {result['failed']}"
            )
            for name, metric in result["metrics"].items():
                print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": seed, "seconds": seconds, "runs": results},
                handle,
                indent=1,
            )
    return 0


def check(spec: dict, seed: int, seconds: float, runs: int) -> int:
    """Two sets of ``runs`` seeds: spread, median shift, exact counts."""
    bad = 0
    for entry in spec["workloads"]:
        workload = entry["name"]
        sets = []
        for first in (seed, seed + runs):
            values: dict = {}
            for run_seed in range(first, first + runs):
                metrics = _spawn(workload, run_seed, seconds, 0)["metrics"]
                for name, metric in metrics.items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"== {workload}: {runs} seeds per set, from seed {seed}")
        print(
            f"{'metric':24s} {'median':>14s} {'spread A':>9s} {'spread B':>9s} "
            f"{'B vs A':>8s} {'bound':>6s}"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = sets[0][name], sets[1][name]
            spreads = [spread(first), spread(second)]
            shift = worsening(
                statistics.median(first),
                statistics.median(second),
                metric["better"],
            )
            # the driver exempts only the spread of setup_s
            widest = 0.0 if name == "setup_s" else max(spreads)
            verdict = ""
            if widest > bound:
                verdict = "  SPREAD > BOUND"
            elif shift > bound:
                verdict = "  SHIFT > BOUND"
            elif widest > bound / 3:
                verdict = "  (spread > bound/3)"
            bad += "BOUND" in verdict
            print(
                f"{name:24s} {statistics.median(first + second):14.4f} "
                f"{spreads[0]:9.4f} {spreads[1]:9.4f} {shift:+8.4f} "
                f"{bound:6.2f}{verdict}"
            )
        traced = [_spawn(workload, seed, seconds, 1)["metrics"] for _ in (0, 1)]
        moved = [
            name
            for name, metric in traced[0].items()
            if metric["unit"] == "count"
            and metric["value"] != traced[1][name]["value"]
        ]
        counts = sum(m["unit"] == "count" for m in traced[0].values())
        print(f"count metrics repeating exactly: {counts - len(moved)}/{counts}")
        for name in moved:
            print(
                f"  COUNT MOVED {name}: {traced[0][name]['value']} "
                f"!= {traced[1][name]['value']}"
            )
        bad += len(moved)
    print("check: OK" if not bad else f"check: {bad} problem(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the collected results here")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="seeds per set")
    args = parser.parse_args(argv)
    if args.workload and not args.child:
        return run_supervised(sys.argv[1:] if argv is None else list(argv))
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    if args.check:
        return check(spec, args.seed, seconds, args.runs)
    return run_all(spec, args.seed, seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
