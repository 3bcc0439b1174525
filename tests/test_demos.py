"""Every narrative script in demos/ and every README example runs against the package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from poplab.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (python_block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(python_block, "README.md", "exec"), {})
    command_line = readme.split("## Command line", 1)[1]
    commands = [line for line in re.search(r"```bash\n(.*?)```", command_line, re.S)[1].splitlines()
                if line.startswith("poplab ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)  # the --csv example writes its file here
    for line in commands:
        expected = 3 if "--impossibility" in line else 0  # a witness was found
        assert main(shlex.split(line)[1:]) == expected, line
    assert capsys.readouterr().err == ""
