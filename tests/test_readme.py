"""The README's examples run as printed: the minimal-solve Python block, and
the JSON configuration through the ``solve`` and ``taylor`` commands."""
import json
import re
from pathlib import Path

import pytest

from octantheat.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_minimal_solve_block_runs():
    (code,) = blocks("python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["trace"].converged
    assert namespace["band"].values.shape == (257, 256)


@pytest.mark.parametrize("command", ["solve", "taylor"])
def test_json_config_runs(tmp_path, command):
    (text,) = blocks("json")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(command, str(path), str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0
