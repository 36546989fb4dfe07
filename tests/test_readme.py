"""The examples of README.md run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from koopeig.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Runs the three commands on the config at argv[1] into argv[2], then prints
# their exit codes and the scipy modules the process has loaded.
COMMANDS = """
import json, sys
from koopeig.cli import main
argv = ["--config", sys.argv[1], "--out", sys.argv[2]]
codes = [main([verb, *argv]) for verb in ("spectrum", "eval", "decompose")]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("scipy"))]))
"""


def _config_reference() -> dict:
    """README's jsonc config reference without its comments."""
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return json.loads(re.sub(r"//.*$", "", block, flags=re.M))


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_config_reference_loads():
    cfg = RunConfig.from_dict(_config_reference())
    assert cfg.system.field.name == "vdp" and cfg.seed == 0


def test_every_command_runs_on_the_readme_config_without_scipy(tmp_path):
    # numpy is the only runtime dependency, but the tests load scipy, so the
    # commands run in a fresh interpreter, where an overflow is an error.
    config, out = tmp_path / "readme.json", tmp_path / "out"
    config.write_text(json.dumps(_config_reference()), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", COMMANDS, str(config), str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    # Most of the README lattice lies outside the domain: eval exits 3.
    assert codes == [0, 3, 0]
    assert loaded == []
    reports = {
        path.name: json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
        for path in out.glob("*.json")
    }
    assert sorted(reports) == ["decomposition.json", "eval_summary.json", "spectrum_summary.json"]
    summary = reports["eval_summary.json"]
    counted = summary["in_domain_points"] + sum(summary["miss_reasons"].values())
    assert counted == summary["lattice_points"]
    residuals = reports["decomposition.json"]["residuals"]
    assert residuals
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
