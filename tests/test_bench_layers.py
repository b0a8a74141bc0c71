"""The benchmark's traced layers match the package: every function that
`bench/tracing.py` traces exists, every layer a workload declares is traced,
and each workload's commands, at a small trial count, reach every layer the
workload declares and draw the slots it declares, scaled to that count. A
change that renames a traced function, stops calling one, or draws other
slots than a workload declares fails here and not only in a traced benchmark
run. The bench files are imported, never changed."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SMALL_TRIALS = 2048


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
# the trial count at which each workload declares its commands' slots
_WORKLOAD_TRIALS = {workloads.BAND_MC.name: workloads.BAND_TRIALS,
                    workloads.DP.name: workloads.DP_TRIALS}
TRACED_NAMES = {f"{m}.{fn}" for m, fns in tracing.TRACED.items() for fn in fns}


@pytest.mark.parametrize("name", sorted(TRACED_NAMES))
def test_traced_function_exists(name):
    module_name, fn_name = name.split(".")
    module = importlib.import_module(f"ordfuse.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"ordfuse.{name} is gone"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_declared_layers_are_traced(workload):
    untraced = set(workloads.WORKLOADS[workload].layers) - TRACED_NAMES
    assert not untraced, f"{workload} declares untraced layers {sorted(untraced)}"


# Runs a workload's commands under the tracer in a fresh process, so the
# wrappers `Tracer.install` puts into the package's namespaces stay there.
_TRACED_RUN = textwrap.dedent("""
    import json, re, sys
    from pathlib import Path
    root, name, out, trials = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3]), int(sys.argv[4])
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import ordfuse.cli as cli
    import tracing, workloads
    workload = workloads.WORKLOADS[name]
    for config, text in workload.configs.items():
        (out / config).write_text(re.sub(r"trials = [0-9]+", f"trials = {trials}", text))
    tracer = tracing.Tracer()
    tracer.install()
    for command in workload.commands:
        argv = [a.replace("{dir}", str(out)).replace("{seed}", "1") for a in command.argv]
        assert cli.main(argv) == 0, argv
    record = tracer.record()
    print(json.dumps({"missing": record["missing"],
                      "called": sorted(n for n, s in record["functions"].items() if s["calls"]),
                      "slots": record["functions"]["sensing_model.draw_slots"]["slots"]}))
""")


def _assert_reaches_every_declared_layer(name, tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT), name, str(tmp_path), str(SMALL_TRIALS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["missing"] == []
    unreached = set(workloads.WORKLOADS[name].layers) - set(result["called"])
    assert not unreached, f"{name} no longer reaches {sorted(unreached)}"
    # the benchmark's `traced slots` check, at SMALL_TRIALS instead of the
    # workload's trial count
    declared = sum(command.slots for command in workloads.WORKLOADS[name].commands)
    assert result["slots"] * _WORKLOAD_TRIALS[name] == declared * SMALL_TRIALS, (
        f"{name} drew {result['slots']} slots at {SMALL_TRIALS} trials; "
        f"it declares {declared} at {_WORKLOAD_TRIALS[name]}"
    )


def test_band_mc_reaches_every_declared_layer(tmp_path):
    _assert_reaches_every_declared_layer(workloads.BAND_MC.name, tmp_path)


def test_dp_reaches_every_declared_layer(tmp_path):
    _assert_reaches_every_declared_layer(workloads.DP.name, tmp_path)
