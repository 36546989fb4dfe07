"""The examples of README.md run as written."""

import json
import re
from pathlib import Path

from koopeig.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_config_reference_loads():
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    cfg = RunConfig.from_dict(json.loads(re.sub(r"//.*$", "", block, flags=re.M)))
    assert cfg.system.field.name == "vdp" and cfg.seed == 0
