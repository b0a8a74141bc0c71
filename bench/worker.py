"""One fresh process of a benchmark run: set up, run a workload's commands,
check their outputs.

Run by `run.py`, never by hand. Set-up is the time to import `ordfuse.cli`
(with numpy and scipy) and `load_config` every config of the workload. The
commands then run in order through `cli.main`, each starting after the
previous one returns. Their outputs are checked after the timed region. The
result goes to the JSON file named by `--result`.

The reference kernel (`reference_s`) runs after set-up and after every
command, so each timing has a measure of the host's speed right beside it:
set-up the run after it, a command the mean of the runs before and after it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

MASS_ERROR_LIMIT = 1e-6
RATE_PREFIXES = ("p_error", "thr_")
REFERENCE_REPEATS = 30
REFERENCE_SIZE = 1 << 18  # 2 MB of float64: little next to a worker's peak RSS


def reference_s(np) -> float:
    """Seconds for a fixed numpy kernel (sort and two ufuncs over 2 MB).

    It shares no code with `ordfuse`, so its time moves only with the speed
    of the host.
    """
    a = np.random.default_rng(0).random(REFERENCE_SIZE)
    buf = np.empty_like(a)
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        np.sort(a)
        np.exp(a, out=buf)
        np.sin(a, out=buf)
    return time.perf_counter() - start


def _invoke(cli, argv: list[str]) -> tuple[int, str]:
    log = io.StringIO()
    try:
        with redirect_stdout(log), redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed command; the run goes on
        rc = -1
        log.write(traceback.format_exc())
    return rc, log.getvalue()


def _check_csv(path: Path) -> str | None:
    """None if every row parses, every number is finite and rates lie in [0, 1]."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "no rows"
    for i, row in enumerate(rows):
        for key, raw in row.items():
            if key == "detector":
                continue
            try:
                value = float(raw)
            except (TypeError, ValueError):
                return f"row {i} {key}={raw!r} is not a number"
            if not math.isfinite(value):
                return f"row {i} {key}={raw} is not finite"
            if key.startswith(RATE_PREFIXES) and not 0.0 <= value <= 1.0:
                return f"row {i} {key}={raw} outside [0, 1]"
    return None


def _check_policy(path: Path) -> str | None:
    from ordfuse.dp_policy import PolicyTable, concavity_check

    try:
        policy = PolicyTable.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"does not load: {exc}"
    return None if concavity_check(policy) else "value function fails concavity_check"


def _check_agreement(out_dir: Path, paths: tuple[str, ...]) -> str | None:
    seen = set()
    for rel in paths:
        with open(out_dir / rel, encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        seen.add((row["p_error"], row["thr_primary"]))
    return None if len(seen) == 1 else f"p_error/thr_primary differ: {sorted(seen)}"


def _checks(workload, out_dir: Path, trace: dict | None) -> list[dict]:
    checks = []

    def check(name: str, detail: str | None) -> None:
        checks.append({"name": name, "ok": detail is None, "detail": detail})

    for spec in workload.commands:
        for rel in spec.outputs:
            path = out_dir / rel
            if not path.is_file():
                check(f"exists {rel}", "missing")
            elif rel.endswith(".csv"):
                check(f"csv {rel}", _check_csv(path))
            elif spec.kind == "solve":
                check(f"policy {rel}", _check_policy(path))
    if workload.agree and all((out_dir / rel).is_file() for rel in workload.agree):
        check("bs and block-map agree", _check_agreement(out_dir, workload.agree))
    if trace is not None:
        # a renamed or bypassed layer must fail here, not read as a 0 in its metrics
        check("traced functions exist", "not found: " + ", ".join(trace["missing"]) if trace["missing"] else None)
        idle = [n for n in workload.layers if not trace["functions"].get(n, {}).get("calls")]
        check("traced layers reached", "never called: " + ", ".join(idle) if idle else None)
        expected = sum(spec.slots for spec in workload.commands)
        drawn = trace["functions"].get("sensing_model.draw_slots", {}).get("slots", 0)
        check("traced slots", None if drawn == expected else f"drew {drawn}, expected {expected}")
        if trace["solves"]:
            worst = max(s.get("quadrature_mass_error", math.inf) for s in trace["solves"])
            check("mass_error", None if worst <= MASS_ERROR_LIMIT else f"{worst:g} > {MASS_ERROR_LIMIT:g}")
    return checks


def _digests(workload, out_dir: Path) -> dict[str, str]:
    out = {}
    for spec in workload.commands:
        for rel in spec.outputs:
            path = out_dir / rel
            if rel.endswith(".csv") and path.is_file():
                out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.dir)

    start = time.perf_counter()
    import ordfuse.cli as cli

    for name in workload.configs:
        cli.load_config(out_dir / name)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"ordfuse imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    references = [reference_s(numpy)]
    result = {
        "setup_s": setup_s,
        "setup_ref_s": references[0],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        commands = []
        for spec in workload.commands:
            argv = [a.format(dir=out_dir, seed=args.seed) for a in spec.argv]
            t0 = time.perf_counter()
            rc, log = _invoke(cli, argv)
            seconds = time.perf_counter() - t0
            references.append(reference_s(numpy))
            commands.append({"argv": argv, "rc": rc, "seconds": seconds,
                             "ref_s": 0.5 * (references[-2] + references[-1]),
                             "slots": spec.slots, "log": log if rc else ""})
        wall_s = sum(c["seconds"] for c in commands)
        trace = tracer.record() if tracer else None
        result.update(
            wall_s=wall_s,
            commands=commands,
            checks=_checks(workload, out_dir, trace),
            digests=_digests(workload, out_dir),
            trace=trace,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
