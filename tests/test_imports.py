"""Static checks over the package source.

Imports sit at module level, never inside a function body, with one
exception: ``RequestsTransport.__call__`` imports ``requests``, so a
process that sends no HTTP request never loads the HTTP stack (start-up is
the largest cost of a small command; see the ``backends`` docstring). No
module is loaded through ``importlib`` or ``__import__`` instead. Only
``cli.main`` catches ``Exception``: everywhere else a handler names the
errors it expects, so an unexpected one reaches ``main`` with its own type
and exit code. Only ``backends.fan_out`` builds a thread pool or thread,
and only ``CachingBackend.__init__`` builds a semaphore. Only
``CachingBackend._call`` tells a fan-out that a call reaches an endpoint
and how that call spent its time, so the worker count follows one rule. Only
``cli.run_command`` opens a run's backends and writes its stats file and
manifest, and only ``cli.Run.read`` raises ``MissingArtifactError``.
Every module-level function and class is named somewhere in the package
outside its own definition, so no production helper serves only tests;
``retrieval.load_index`` is the one exception, kept while the benchmark
tracer still names it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tracedistill"


def nodes_by_function(source):
    """Yield (dotted name of the enclosing function or None, node) for every node.

    The name runs through every enclosing class and function, so a method
    is ``Class.method``.
    """

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield ".".join(scope) or None, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield from visit(child, scope)

    return visit(ast.parse(source), ())


def nested_imports(source):
    """(enclosing class or function, line, imported modules) of each import not at module level."""
    found = []
    for scope, node in nodes_by_function(source):
        if scope is not None and isinstance(node, ast.Import):
            found.append((scope, node.lineno, [alias.name for alias in node.names]))
        elif scope is not None and isinstance(node, ast.ImportFrom):
            found.append((scope, node.lineno, ["." * node.level + (node.module or "")]))
    return found


def test_detector_finds_nested_imports_only():
    source = (
        "import os\n\ndef f():\n    def g():\n        from x import y\n    import sys\n"
        "class C:\n    from . import z\n"
    )
    assert nested_imports(source) == [("f.g", 5, ["x"]), ("f", 6, ["sys"]), ("C", 8, ["."])]


# enclosing function -> modules it imports; the reason is in the module docstring
NESTED_IMPORTS = {"backends.py": [("RequestsTransport.__call__", ["requests"])]}


def test_no_function_local_imports_in_package():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports = nested_imports(path.read_text(encoding="utf-8"))
        if imports:
            found[path.name] = [(scope, modules) for scope, _, modules in imports]
    assert found == NESTED_IMPORTS


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


THREADS = {"ThreadPoolExecutor", "Thread"}
SEMAPHORES = {"Semaphore", "BoundedSemaphore"}


def constructions(source, names):
    """(enclosing function, line) of each call to one of ``names``, bare or as an attribute."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((function, node.lineno))
    return found


def constructions_outside(names, allowed, find=constructions):
    """File name -> what ``find`` reports for ``names`` in the package, except in the
    ``allowed`` (file name, function) pair; ``find`` defaults to ``constructions``."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = find(path.read_text(encoding="utf-8"), names)
        found = [h for h in found if (path.name, h[0]) != allowed]
        if found:
            offenders[path.name] = found
    return offenders


def test_no_import_by_call_in_package():
    """No module loads through ``importlib`` or ``__import__``, past the nested-import gate."""
    assert constructions_outside({"import_module", "__import__"}, None) == {}


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
    assert constructions(source, THREADS) == [("f", 4), ("f", 5), (None, 8)]


def test_only_fan_out_builds_threads():
    """``max_inflight`` stays the one concurrency setting: every worker comes from ``fan_out``."""
    assert constructions_outside(THREADS, ("backends.py", "fan_out")) == {}


def test_detector_finds_semaphore_constructions_by_method():
    source = (
        "import threading\n"
        "class Backend:\n"
        "    def __init__(self):\n"
        "        self._sem = threading.BoundedSemaphore(4)\n"
        "    def call(self):\n"
        "        with threading.Semaphore(2):\n"
        "            pass\n"
        "def __init__():\n"
        "    Semaphore(1)\n"
        "threading.Lock()\n"
    )
    assert constructions(source, SEMAPHORES) == [
        ("Backend.__init__", 4),
        ("Backend.call", 6),
        ("__init__", 9),
    ]


def test_only_caching_backend_builds_semaphores():
    """``max_inflight`` stays the one in-flight cap: the only semaphore is ``CachingBackend``'s."""
    assert constructions_outside(SEMAPHORES, ("backends.py", "CachingBackend.__init__")) == {}


FAN_OUT_HOOKS = {"reaching_endpoint", "endpoint_answered"}


def test_detector_finds_fan_out_hook_calls_by_method():
    source = (
        "class CachingBackend:\n"
        "    def _call(self):\n"
        "        reaching_endpoint()\n"
        "        backends.endpoint_answered(0.1, 0.0)\n"
        "def job(item):\n"
        "    reaching_endpoint\n"
        "    return endpoint_answered(1.0, 1.0)\n"
    )
    assert constructions(source, FAN_OUT_HOOKS) == [
        ("CachingBackend._call", 3),
        ("CachingBackend._call", 4),
        ("job", 7),
    ]


def test_only_caching_backend_call_feeds_the_fan_out_hooks():
    """The fan-out's worker count follows what endpoint calls do, as ``_call`` alone reports it."""
    assert constructions_outside(FAN_OUT_HOOKS, ("backends.py", "CachingBackend._call")) == {}


RUN_RECORDS = {"open_backends", "write_run_stats", "write_manifest"}


def test_only_run_command_opens_backends_and_writes_run_records():
    """One runner gives every subcommand its backends, its stats file and, last, its manifest."""
    assert constructions_outside(RUN_RECORDS, ("cli.py", "run_command")) == {}


def raises(source, names):
    """(enclosing function, line) of each ``raise`` of one of ``names``, called or bare."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in names:
                found.append((function, node.lineno))
    return found


def test_detector_finds_raises_by_exception_name():
    source = (
        "class Run:\n"
        "    def read(self, path):\n"
        "        raise MissingArtifactError(path, 'induce')\n"
        "def f():\n"
        "    raise cli.MissingArtifactError\n"
        "    raise ValueError('MissingArtifactError')\n"
        "    MissingArtifactError('p', 'q')\n"
        "raise MissingArtifactError\n"
    )
    assert raises(source, {"MissingArtifactError"}) == [("Run.read", 3), ("f", 5), (None, 8)]


def test_only_run_read_raises_missing_artifact():
    """Every upstream artifact is declared through ``Run.read``, the one place its check sits."""
    allowed = ("cli.py", "Run.read")
    assert constructions_outside({"MissingArtifactError"}, allowed, find=raises) == {}


def unreferenced_definitions(sources):
    """``module.name`` of each module-level function or class that nothing in ``sources``
    names (as a bare name or an attribute) outside its own definition.

    ``sources`` maps module name to source text. An import alone does not count.
    """
    named = []  # (module, top-level statement index, names used in that statement)
    definitions = []
    for module, source in sources.items():
        for position, statement in enumerate(ast.parse(source).body):
            used = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            named.append((module, position, used))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, position, statement.name))
    return [
        f"{module}.{name}"
        for module, position, name in definitions
        if not any(
            name in used and (other, where) != (module, position)
            for other, where, used in named
        )
    ]


def test_detector_finds_unreferenced_definitions():
    sources = {
        "a": (
            "def used():\n    pass\n"
            "def unused():\n    return unused()\n"
            "class Thing:\n    pass\n"
            "def also_used():\n    return used()\n"
        ),
        "b": "from a import also_used, unused\nalso_used()\nx = a.Thing\n",
    }
    assert unreferenced_definitions(sources) == ["a.unused"]


# retrieval.load_index goes once bench/tracer.py no longer names it
ONLY_TESTS_CALL = ["retrieval.load_index"]


def test_no_production_helper_that_only_tests_call():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == ONLY_TESTS_CALL
