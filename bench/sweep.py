"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10                 # every workload, untraced
    python3 bench/sweep.py --seeds 1-10 --trace --out bench/results/baseline.json
    python3 bench/sweep.py --seeds 1-10 --baseline bench/results/baseline.json

Runs `run.py` once per (seed, workload), seeds in the outer loop so that the
workloads interleave in time, and prints every end-to-end metric of every
workload by name and unit: median, quartiles, sample count and the
quartile spread as a share of the median (`statistics.quantiles(n=4)`), next
to a third of the metric's bound from BENCHMARK.json. `solve_s` and
`failed_frac` come from the run records; BENCHMARK.json does not carry them
because `band-mc` runs no solve and `failed_frac` is 0 on a correct tree.

Every run lasts BENCHMARK.json's `run_seconds`. `--trace` adds one traced
run per workload, on the first seed, and the per-layer figures that
correspond to the ROADMAP layer table. `--baseline` compares medians and CSV
digests with an earlier `--out` file made with the same `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import PRINTED_ONLY_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROADMAP_SLOTS = 8192  # the ROADMAP layer table quotes times per 8,192 slots



def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record_path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_path.read_text(encoding="utf-8"))
    return result


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def _label(argv: list[str]) -> str:
    """`run fig-sensing-vs-c sensing.ini`, `solve error-min.ini` and the like."""
    words = [argv[0]]
    if "--preset" in argv:
        words.append(argv[argv.index("--preset") + 1])
    words.append(Path(argv[argv.index("--config") + 1]).name)
    return " ".join(words + [a for a in argv if a == "--one-threshold"])


def _command_seconds(runs: list[dict]) -> dict:
    """Median seconds of each command over every untraced worker of every run."""
    samples = {}
    for r in runs:
        rec = r["record"]
        for worker in rec["commands"][: rec["samples"]["workers"]]:
            for cmd in worker:
                samples.setdefault(_label(cmd["argv"]), []).append(cmd["seconds"])
    return {label: statistics.median(v) for label, v in samples.items()}


def _roadmap_rows(record: dict) -> dict:
    """ROADMAP item 1 layer table, as measured by one traced run."""
    fns = record["trace_tables"][0]["functions"]
    per_chunk = {}
    for name in ("sensing_model.draw_slots", "bs_thresholds.decide_batch",
                 "dp_policy.run_policy_batch"):
        f = fns.get(name)
        if f and f["slots"]:
            per_chunk[f"{name} ms per {ROADMAP_SLOTS} slots (total)"] = (
                1e3 * f["total_s"] / f["slots"] * ROADMAP_SLOTS)
    env = fns.get("llr_distributions.envelope_for")
    if env and env["calls"]:
        per_chunk["llr_distributions.envelope_for total s"] = env["total_s"]
    for name in ("dp_policy.solve_backward", "dp_policy.solve_one_threshold"):
        f = fns.get(name)
        if f and f["calls"]:
            per_chunk[f"{name} s per call (total)"] = f["total_s"] / f["calls"]
    per_chunk["solve nodes (max)"] = record["per_layer"]["dp_policy.solve.nodes"]
    per_chunk["solve nodes (min)"] = record["per_layer"]["dp_policy.solve.nodes_min"]
    return per_chunk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = list(WORKLOADS)
    seeds = _seeds(args.seeds)
    base = None
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        if base["seconds"] != seconds:
            print(f"error: {args.baseline} has runs of {base['seconds']} s, "
                  f"BENCHMARK.json asks for {seconds} s", file=sys.stderr)
            return 2

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = _run(w, seed, seconds, 0)
            runs[w].append(r)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"{shown}", flush=True)

    summary = {"seconds": seconds, "seeds": seeds, "environment": None, "workloads": {}}
    ok = True
    for w in workloads:
        rs = runs[w]
        summary["environment"] = rs[0]["record"]["environment"]
        table = {}
        for name, (unit, _, bound) in metrics.items():
            table[name] = {"unit": unit, "bound": bound,
                           **_quartiles([r["metrics"][name]["value"] for r in rs])}
        for name, unit in PRINTED_ONLY_UNITS.items():
            values = [r["record"]["end_to_end"][name] for r in rs]
            if None not in values:
                table[name] = {"unit": unit, **_quartiles(values)}
        summary["workloads"][w] = {
            "end_to_end": table,
            "command_s": _command_seconds(rs),
            "digests": {str(r["record"]["seed"]): r["record"]["digests"] for r in rs},
            "all_correct": all(r["correct"] for r in rs),
        }
        print(f"\n{w}  ({len(rs)} runs of {seconds} s)")
        for name, row in table.items():
            limit = row.get("bound")
            verdict = ""
            if limit is not None:
                steady = row["spread"] < limit / 3
                ok &= steady
                verdict = "steady" if steady else f"WIDE (> {limit / 3:.3f})"
            print(f"  {name:<15} {row['median']:>12.6g} {row['unit']:<4} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}  "
                  f"spread {row['spread']:.4f}  {verdict}")
        for label, sec in summary["workloads"][w]["command_s"].items():
            print(f"  [command] {label:<40} {sec:.4g} s")
        ok &= summary["workloads"][w]["all_correct"]

    if args.trace:
        for w in workloads:
            r = _run(w, seeds[0], seconds, 1)
            rec = r["record"]
            summary["workloads"][w]["per_layer"] = rec["per_layer"]
            summary["workloads"][w]["roadmap_layers"] = _roadmap_rows(rec)
            summary["workloads"][w]["traced_digests_match"] = (
                rec["digests"] == summary["workloads"][w]["digests"][str(seeds[0])])
            ok &= r["correct"] and summary["workloads"][w]["traced_digests_match"]
            print(f"\n{w} traced (seed {seeds[0]}): correct={r['correct']} digests match "
                  f"untraced: {summary['workloads'][w]['traced_digests_match']}")
            for name, value in rec["per_layer"].items():
                print(f"  {name:<56} {value:.6g}")
            for name, value in summary["workloads"][w]["roadmap_layers"].items():
                print(f"  [roadmap] {name:<60} {value:.6g}")

    if base is not None:
        print(f"\nagainst {args.baseline}")
        for w in workloads:
            old = base["workloads"].get(w)
            if old is None:
                continue
            for name, (unit, better, bound) in metrics.items():
                a = old["end_to_end"][name]["median"]
                b = summary["workloads"][w]["end_to_end"][name]["median"]
                change = (b - a) / a
                worse = change > bound if better == "lower" else -change > bound
                ok &= not worse
                print(f"  {w:<17} {name:<15} {a:.6g} -> {b:.6g} {unit}  "
                      f"{100 * change:+.1f}%  {'WORSE than bound' if worse else 'within bound'}")
            shared = set(old["digests"]) & set(summary["workloads"][w]["digests"])
            same = all(old["digests"][s] == summary["workloads"][w]["digests"][s] for s in shared)
            ok &= same
            print(f"  {w:<17} CSV digests on {len(shared)} shared seeds: "
                  f"{'identical' if same else 'DIFFERENT'}")

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
