"""README.md and PAPER.md carry the same library tour: one row per
``zfalpha`` module, word for word."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module_rows(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return [line for line in fh if line.startswith("| `zfalpha.")]


def test_module_tables_in_readme_and_paper_match():
    readme = _module_rows("README.md")
    assert len(readme) == 7
    assert readme == _module_rows("PAPER.md")
