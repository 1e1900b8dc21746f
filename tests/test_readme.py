"""The README documents the CLI's own tables."""

import re
from pathlib import Path

from polycontact.cli import CLASSES

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_constructions_table_lists_every_class_in_order():
    section = _README.read_text().split("## Constructions\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    assert [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)] \
        == list(CLASSES)
