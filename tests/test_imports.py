"""Static checks over the package source.

Imports sit at module level, never inside a function body, and only
``cli.main`` catches ``Exception``: everywhere else a handler names the
errors it expects, so an unexpected one reaches ``main`` with its own type
and exit code. Only ``backends.fan_out`` builds a thread pool or thread.
"""

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


def nodes_by_function(source):
    """Yield (name of the enclosing function or None, node) for every node."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            yield function, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                yield from visit(child, function)

    return visit(ast.parse(source), None)


def broad_handlers(source):
    """(enclosing function, line) of each bare ``except:`` or ``except Exception``."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                t is None or (isinstance(t, ast.Name) and t.id in {"Exception", "BaseException"})
                for t in caught
            ):
                found.append((function, node.lineno))
    return found


def test_detector_finds_broad_handlers_only():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "def f():\n"
        "    try:\n        pass\n    except ValueError:\n        pass\n"
        "    try:\n        pass\n    except (KeyError, Exception):\n        pass\n"
    )
    assert broad_handlers(source) == [(None, 3), ("f", 12)]


def test_only_cli_main_catches_exception():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = broad_handlers(path.read_text(encoding="utf-8"))
        found = [h for h in found if (path.name, h[0]) != ("cli.py", "main")]
        if found:
            offenders[path.name] = found
    assert offenders == {}


def thread_constructions(source):
    """(enclosing function, line) of each ``ThreadPoolExecutor(...)`` or ``Thread(...)`` call."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in {"ThreadPoolExecutor", "Thread"}:
                found.append((function, node.lineno))
    return found


def test_detector_finds_thread_constructions():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def f():\n"
        "    threading.Thread(target=f).start()\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        pool.submit(f)\n"
        "    threading.Lock()\n"
        "x = concurrent.futures.ThreadPoolExecutor()\n"
    )
    assert thread_constructions(source) == [("f", 4), ("f", 5), (None, 8)]


def test_only_fan_out_builds_threads():
    """``max_inflight`` stays the one concurrency setting: every worker comes from ``fan_out``."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = thread_constructions(path.read_text(encoding="utf-8"))
        found = [h for h in found if (path.name, h[0]) != ("backends.py", "fan_out")]
        if found:
            offenders[path.name] = found
    assert offenders == {}
