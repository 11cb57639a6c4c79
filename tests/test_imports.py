"""Package imports sit at module level, never inside a function body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tracedistill"


def function_local_imports(source):
    """Line numbers of import statements nested in a function or lambda."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def test_detector_finds_nested_imports_only():
    source = "import os\n\ndef f():\n    def g():\n        from x import y\n    import sys\n"
    assert function_local_imports(source) == [5, 6]


def test_no_function_local_imports_in_package():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_local_imports(path.read_text(encoding="utf-8"))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}
