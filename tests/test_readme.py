"""The README stays true to the code: its config table and its examples."""

import re
from pathlib import Path

from disperse.cli import _FIELDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_config_reference_lists_every_field_with_its_default():
    reference = README.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in reference.splitlines() if line.startswith("| ")][1:]
    documented = {}
    for row in rows:
        keys, default = (cell.strip() for cell in row.strip("|").split("|")[:2])
        for key in keys.split(", "):
            documented[key] = None if default == "required" else default
    assert documented == {f"{section}.{key}": default
                          for section, fields in _FIELDS.items()
                          for key, (default, _) in fields.items()}


def test_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the oracle example reuses the first one's names
        exec(block, namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2
