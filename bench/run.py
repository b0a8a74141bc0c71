"""ordfuse benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload band-mc --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from `src/` next to this directory,
with no install step. Load is closed-loop with one client: each iteration is
a fresh worker process (`worker.py`) that imports `ordfuse`, loads the
workload's configs and runs its commands through `ordfuse.cli.main`, one
after another. Iterations repeat while at least half an iteration's time is left of
`--seconds` (at least one). PROBES_PER_ITERATION set-up-only processes run
after each iteration. When less than half an iteration is left, set-up-only
processes fill the rest of `--seconds`, and more run at the end if the run
still has fewer than MIN_SETUP_SAMPLES set-up samples.

The speed of a shared host drifts by up to a third in phases of tens of
seconds to minutes, longer than a run. So every time is host-adjusted:
the worker runs a fixed reference kernel beside each timing, and the time is
scaled by REFERENCE_NOMINAL_S ÷ the kernel's time there, which gives seconds
at the host speed where the kernel takes REFERENCE_NOMINAL_S. The measured
times go into the record and the printout as `setup_raw_s`, `wall_raw_s`
and `mc_slots_per_raw_s`.

`setup_s` and `peak_rss_mb` are medians over processes. `wall_s`,
`mc_slots_per_s` and `solve_s` are totals over the run divided by
iterations, slots or time.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs pairs of an
untraced and a traced worker and reports the per-layer metrics of the traced
ones (see `tracing.py`) plus `trace.overhead_frac`, the median over pairs of
traced ÷ untraced wall time − 1.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `failed` counts non-zero exits and
failed output checks; `attempted` counts commands and checks. The full
record (environment, per-command times, CSV digests, trace tables) goes to
`.bench_work/results/` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = 1  # BLAS/OpenMP threads per worker; at or below nproc
MIN_SETUP_SAMPLES = 12
PROBES_PER_ITERATION = 2  # spread set-up samples over the run
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# time of worker.reference_s on an Intel Xeon with 2 vCPUs (numpy 2.4.6) in
# a fast phase; host-adjusted times are seconds at that speed
REFERENCE_NOMINAL_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# in the record, not in BENCHMARK.json
PRINTED_ONLY_UNITS = {"solve_s": "s", "failed_frac": "1", "setup_raw_s": "s",
                      "wall_raw_s": "s", "mc_slots_per_raw_s": "1/s"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(versions: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": THREADS,
        **versions,
    }


class Run:
    """Spawns worker processes for one workload and seed and keeps their results."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.update({var: str(THREADS) for var in THREAD_VARS})
        self.started = time.monotonic()
        self.spawned = 0
        self.crashes: list[str] = []

    def spawn(self, *flags: str) -> dict | None:
        """One worker process; None (and a recorded crash) if it gives no result."""
        self.spawned += 1
        out_dir = self.dir / f"w{self.spawned}"
        out_dir.mkdir()
        for name, text in self.workload.configs.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        result_path = out_dir / "result.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--dir", str(out_dir), "--result", str(result_path),
               "--src", str(SRC), *flags]
        budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=out_dir, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            self.crashes.append(f"worker {self.spawned} exceeded {budget:.0f} s")
            return None
        if proc.returncode != 0 or not result_path.is_file():
            self.crashes.append(f"worker {self.spawned} exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "wall_s" in result:
            shutil.rmtree(out_dir)  # outputs are checked and digested; keep the disk small
        return result


def _tally(workers: list[dict], crashes: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over commands, checks and crashes."""
    attempted, failures = len(crashes), list(crashes)
    for i, w in enumerate(workers, 1):
        for cmd in w["commands"]:
            attempted += 1
            if cmd["rc"] != 0:
                failures.append(f"worker {i}: exit {cmd['rc']} from {' '.join(cmd['argv'])}\n{cmd['log']}")
        for chk in w["checks"]:
            attempted += 1
            if not chk["ok"]:
                failures.append(f"worker {i}: {chk['name']}: {chk['detail']}")
    # every worker of a run uses the same seed, so every CSV must be byte-identical
    attempted += 1
    if len({json.dumps(w["digests"], sort_keys=True) for w in workers}) > 1:
        failures.append("CSV digests differ between workers of the same seed")
    return attempted, len(failures), failures


def _adjusted(seconds: float, ref_s: float) -> float:
    """Seconds at the host speed where the reference kernel takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / ref_s


def _wall(worker: dict) -> float:
    return sum(_adjusted(c["seconds"], c["ref_s"]) for c in worker["commands"])


def _end_to_end(workload, workers: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(reported metrics, printed-only metrics); `setups` holds (seconds, ref_s)."""
    def seconds_of(kind, adjust=True):
        return sum(_adjusted(c["seconds"], c["ref_s"]) if adjust else c["seconds"]
                   for w in workers for c in w["commands"] if c["argv"][0] == kind)

    slots = sum(c.slots for c in workload.commands) * len(workers)
    metrics = {
        "setup_s": median([_adjusted(s, r) for s, r in setups]),
        "wall_s": sum(_wall(w) for w in workers) / len(workers),
        "mc_slots_per_s": slots / seconds_of("run"),
        "peak_rss_mb": median([w["peak_rss_mb"] for w in workers]),
    }
    has_solve = any(c.kind == "solve" for c in workload.commands)
    extra = {
        "solve_s": seconds_of("solve") / len(workers) if has_solve else None,
        "setup_raw_s": median([s for s, _ in setups]),
        "wall_raw_s": sum(w["wall_s"] for w in workers) / len(workers),
        "mc_slots_per_raw_s": slots / seconds_of("run", adjust=False),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ordfuse" / "cli.py").is_file():
        print(f"error: no ordfuse sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | PRINTED_ONLY_UNITS
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, bool(args.trace))
    deadline = run.started + args.seconds
    plain, traced, setups, pairs = [], [], [], []

    def probe() -> None:
        result = run.spawn("--setup-only")
        if result is not None:
            setups.append((result["setup_s"], result["setup_ref_s"]))

    while True:
        t0 = time.monotonic()
        pair = []
        for flags, into in ((), plain), (("--trace",), traced):
            if into is traced and not args.trace:
                continue
            result = run.spawn(*flags)
            if result is not None:
                into.append(result)
                pair.append(_wall(result))
                setups.append((result["setup_s"], result["setup_ref_s"]))
        if len(pair) == 2:
            pairs.append(pair)
        for _ in range(PROBES_PER_ITERATION):
            probe()
        now = time.monotonic()
        if deadline - now < 0.5 * (now - t0) or run.crashes:
            break
    # the rest of the window, too short for an iteration, goes to set-up samples
    while (time.monotonic() < deadline or len(setups) < MIN_SETUP_SAMPLES) and not run.crashes:
        probe()

    workers = plain + traced
    if not plain or (args.trace and not traced):
        print("error: no worker finished\n" + "\n".join(run.crashes), file=sys.stderr)
        return 1
    attempted, failed, failures = _tally(workers, run.crashes)
    e2e, extra = _end_to_end(workload, plain, setups)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(plain[0]["versions"]),
        "samples": {"workers": len(plain), "traced_workers": len(traced), "setup": len(setups)},
        "end_to_end": {**e2e, **extra, "failed_frac": failed / attempted},
        "setup_samples": setups,
        "wall_samples": [_wall(w) for w in plain],
        "commands": [[{k: c[k] for k in ("argv", "rc", "seconds", "ref_s", "slots")} for c in w["commands"]]
                     for w in workers],
        "digests": plain[0]["digests"],
        "failures": failures,
    }
    if args.trace:
        from tracing import layer_metrics

        layers = [layer_metrics(w["trace"]) for w in traced]
        metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
        # paired within an iteration, so that a slow or fast host phase
        # falls on both sides of each ratio; it cannot resolve an overhead
        # below the run-to-run spread of wall_s
        metrics["trace.overhead_frac"] = median([t / u - 1.0 for u, t in pairs])
        record["per_layer"] = metrics
        record["trace_tables"] = [w["trace"] for w in traced]
    else:
        metrics = e2e
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(run.dir, ignore_errors=True)

    env = record["environment"]
    print(f"{workload.name} seed {args.seed}: {len(plain)} workers, {len(traced)} traced, "
          f"{len(setups)} set-up samples; {env['cpu_model']}, nproc {env['nproc']}, "
          f"threads {env['threads']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}")
    for name, value in record["end_to_end"].items():
        shown = "n/a (no solve commands)" if value is None else f"{value:.6g} {e2e_units[name]}"
        print(f"  {name:<16} {shown}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<56} {value:.6g} {units[name]}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
