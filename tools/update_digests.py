"""Rewrite `tests/digests.json`, the sha256 digests that the test suite
checks every preset's CSV and three solves' policy values against.

    python3 tools/update_digests.py

Runs the suite once to collect the digests it computes (the `check_digest`
fixture writes them under pytest's base temporary directory), prints each
that differs from the recorded one, writes them to the file, and runs the
suite again. If that run fails, the old file is put back. A change that
moves a digest reruns this and lists each changed digest, with its reason,
in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "digests.json"


def _suite(basetemp: Path) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={basetemp}"]
    return subprocess.run(cmd, cwd=ROOT).returncode


def main() -> int:
    old_text = DIGESTS.read_text()
    before = json.loads(old_text)["digests"]
    with tempfile.TemporaryDirectory() as scratch:
        basetemp = Path(scratch) / "pytest"
        _suite(basetemp)
        computed = basetemp / DIGESTS.name
        if not computed.exists():
            print(f"the suite computed no digests; {DIGESTS.name} left as it was", file=sys.stderr)
            return 1
        new_text = computed.read_text()
        after = json.loads(new_text)["digests"]
        changed = [name for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
        for name in changed:
            print(f"{name}: {before.get(name, '-')} -> {after.get(name, '-')}")
        DIGESTS.write_text(new_text)
        if _suite(basetemp) != 0:
            DIGESTS.write_text(old_text)
            print(f"the suite fails with the new digests; {DIGESTS.name} left as it was", file=sys.stderr)
            return 1
    print(f"{len(changed)} of {len(after)} digests changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
