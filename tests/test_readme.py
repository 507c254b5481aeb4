"""The README's "Library" example runs against the public API and gives
the values its comments state, and its "Report" table lists the keys of
the analyze reports."""

import json
import re
from pathlib import Path

from ffconsensus.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(blocks[0], ns)
    assert ns["order_of_x_mod"](ns["Q"]) == 20
    assert ns["autonomous_cycle_structure"](ns["A"]).cycles == {1: 1, 20: 4}
    assert ns["analyze"](ns["net"]).verdict == "guaranteed"


def _table_keys():
    section = README.read_text(encoding="utf-8").split("\n## Report\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.M)


def _flat_keys(obj, prefix=""):
    """Dotted paths of a report's keys; a list of objects adds ``[]``."""
    if isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        return set().union(*(_flat_keys(v, prefix + "[]") for v in obj))
    if not isinstance(obj, dict):
        return {prefix}
    return set().union(*(_flat_keys(v, f"{prefix}.{k}" if prefix else k) for k, v in obj.items()))


def test_readme_report_table_lists_every_report_key(tmp_path, capsys):
    """The table of the "Report" section names each key once, and its keys
    are those of the analyze reports of the golden configs and of two
    more: static and switching, with and without a gain, guaranteed,
    impossible and inconclusive, and a constant signal."""
    keys = _table_keys()
    assert len(keys) == len(set(keys))
    golden = json.loads((Path(__file__).parent / "data" / "analyze_golden.json").read_text())
    configs = [case["config"] for case in golden.values()]
    ref = golden["leader_f3"]["config"]
    configs.append({k: v for k, v in ref.items() if k != "switching"} | {"graphs": ref["graphs"][:1]})
    configs.append(ref | {"K": [1, 0, 0, 0, 0]})
    seen, kinds = set(), set()
    for doc in configs:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        main(["analyze", str(path)])
        report = json.loads(capsys.readouterr().out)
        seen |= _flat_keys(report)
        kinds.add((report["mode"], "K" in doc, report["verdict"]))
    for mode in ("static", "switching"):
        for gain in (False, True):
            assert {(mode, gain, v) for v in ("guaranteed", "impossible")} <= kinds, kinds
    assert ("switching", False, "inconclusive") in kinds
    assert set(keys) == seen
