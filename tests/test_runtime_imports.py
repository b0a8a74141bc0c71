"""The runtime needs numpy only: importing the package and running every CLI
command loads no scipy module. scipy serves `ordfuse.reference` and the
tests, and its import would double the start-up time of each command. Nor
does a command load `numpy.ma` or `numpy.polynomial`, which `import numpy`
leaves out: `np.unique` and `leggauss` pull them in, and their import
tripled the time of the first solve in a process. `numpy.fft` loads at the
first solve, whose continuation needs it, and not before: importing the CLI,
`validate` and a band-detector run leave it out, so neither a command's
set-up nor a run that never solves pays for it. Set-up, the import and
`validate`, loads no `base64` either. (A Monte Carlo run loads `base64`
anyway, through `numpy.random`'s import of `secrets`.)"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ordfuse

SCRIPT = """
import json, sys
from pathlib import Path
import ordfuse
import ordfuse.cli as cli

out = Path(sys.argv[1])
configs = {
    "energy.ini": "[scenario]\\nM = 4\\nK = 3\\n[experiment]\\ntrials = 200\\n",
    "dp.ini": "[scenario]\\nM = 4\\nK = 3\\n[experiment]\\ndetector = dp\\ntrials = 200\\n",
    "shift.ini": "[scenario]\\nM = 4\\nK = 3\\nmeasurement_model = shift-in-mean\\n"
                 "[experiment]\\ntrials = 200\\n",
}
for name, text in configs.items():
    (out / name).write_text(text)
unsolved = [
    ["validate", "--config", out / "energy.ini"],
    ["run", "--config", out / "energy.ini", "--preset", "custom", "--out", out / "bs"],
    ["run", "--config", out / "shift.ini", "--preset", "custom", "--out", out / "shift"],
]
solved = [
    ["solve", "--config", out / "energy.ini", "--out", out / "policy.json"],
    ["run", "--config", out / "dp.ini", "--preset", "custom", "--out", out / "dp"],
]
codes = [cli.main([str(arg) for arg in argv]) for argv in unsolved[:1]]
base64_at_setup = "base64" in sys.modules
codes += [cli.main([str(arg) for arg in argv]) for argv in unsolved[1:]]
fft_unsolved = sorted(name for name in sys.modules if name.startswith("numpy.fft"))
codes += [cli.main([str(arg) for arg in argv]) for argv in solved]
def package(name):
    parts = name.split(".")
    return parts[0] if parts[0] == "scipy" else ".".join(parts[:2])

loaded = sorted(name for name in sys.modules
                if package(name) in ("scipy", "numpy.ma", "numpy.polynomial"))
print(json.dumps({"codes": codes, "loaded": loaded, "fft_unsolved": fft_unsolved,
                  "base64_at_setup": base64_at_setup}))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(ordfuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["loaded"] == []
    assert result["fft_unsolved"] == []
    assert result["base64_at_setup"] is False
