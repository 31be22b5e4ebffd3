"""The README's ```python blocks run as written, and its ```json solution
config passes through the CLI."""

import json
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
CONFIGS = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_solution_config_passes(tmp_path, capsys):
    from epscontact.cli import main

    (config,) = CONFIGS
    path = tmp_path / "solution.json"
    path.write_text(config)
    assert main(["solution", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert [item["pass"] for item in report["items"]] == [True]
