"""The scripts under scripts/ run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_bound_tables_script_shows_the_sharp_example_is_minimal():
    proc = run_script("bound_tables.py")
    assert proc.returncode == 0, proc.stderr
    section = proc.stdout.split("== sharp example")[1].split("\n\n")[0]
    rows = {}
    for line in section.splitlines()[1:]:
        if "|" in line:
            label, values = line.split("|")
            rows[label.strip()] = values.split()
    assert rows["betti"] == rows["complex"] == ["10", "27", "32", "19", "6", "1", "0"]
