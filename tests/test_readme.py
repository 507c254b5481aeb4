"""The README's "Library" example runs against the public API and gives
the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    assert ns["order_of_x_mod"](ns["Q"]) == 20
    assert ns["autonomous_cycle_structure"](ns["A"]).cycles == {1: 1, 20: 4}
    assert ns["analyze"](ns["net"]).verdict == "guaranteed"
