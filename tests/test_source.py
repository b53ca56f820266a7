import ast
from pathlib import Path

import superstable


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so invariants must raise
    package = Path(superstable.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
