"""Every ```python block of README.md runs against the package.

Fences count only at the start of a line, as in CommonMark: a closing fence
carries nothing but spaces after its backticks, and a block that never
closes runs to the end of the file.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\S*)(.*)$")


def fenced_blocks(text: str) -> list[tuple[int, str, str, bool]]:
    """(opening line number, info word, source, closed) of each fenced block."""
    blocks, lang, start, body = [], None, 0, []
    for number, line in enumerate(text.splitlines(), start=1):
        fence = FENCE.match(line)
        if lang is None:
            if fence:
                lang, start, body = fence.group(1), number, []
        elif fence and not fence.group(1) and not fence.group(2).strip():
            blocks.append((start, lang, "\n".join(body) + "\n", True))
            lang = None
        else:
            body.append(line)
    if lang is not None:
        blocks.append((start, lang, "\n".join(body) + "\n", False))
    return blocks


BLOCKS = fenced_blocks(README.read_text(encoding="utf-8"))
PYTHON_BLOCKS = [(start, source) for start, lang, source, _ in BLOCKS if lang == "python"]


def test_every_block_closes():
    assert [start for start, _, _, closed in BLOCKS if not closed] == []
    assert len(PYTHON_BLOCKS) >= 3


# Each case is named by its ordinal among the python blocks, so that an
# edit above a block does not rename its test.
@pytest.mark.parametrize(
    "start, source",
    [pytest.param(start, source, id=f"block-{k}")
     for k, (start, source) in enumerate(PYTHON_BLOCKS, start=1)],
)
def test_python_block_runs(start, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"README.md:{start}", "exec"), {"__name__": "__readme__"})
