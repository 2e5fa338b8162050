"""The oldest Python that pyproject.toml allows (3.10) can parse every source file.

`ast.parse` with `feature_version=(3, 10)` rejects syntax that only later
versions accept, such as `except*` (3.11) and type-parameter lists (3.12),
so a newer interpreter checks what a 3.10 one would refuse to compile.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_source_file_parses_as_python_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
    with pytest.raises(SyntaxError):
        ast.parse("def first[T](items: list[T]) -> T:\n    return items[0]\n", feature_version=OLDEST)

    paths = sorted(p for top in ("src", "scripts", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert any(p.name == "deligne_lusztig.py" for p in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
