"""Static checks over the package source.

Imports sit at module level, never inside a function body, with one
exception: ``RequestsTransport.__call__`` imports ``requests``, so a
process that sends no HTTP request never loads the HTTP stack (start-up is
the largest cost of a small command; see the ``backends`` docstring). No
module is loaded through ``importlib`` or ``__import__`` instead, and no
module imports numpy, at any scope: an embedding is a tuple of floats, and
the one 24-row scan per query does not pay for an array library's import
time and memory in every process. Only
``cli.main`` catches ``Exception``: everywhere else a handler names the
errors it expects, so an unexpected one reaches ``main`` with its own type
and exit code. Only ``backends.fan_out`` builds a thread pool or thread,
and only ``CachingBackend.__init__`` builds a semaphore. Only
``CachingBackend._reach``, the one gate between a cache miss and its
endpoint, tells a fan-out that a call reaches an endpoint and how that call
spent its time, and only it and ``_Drain.run`` touch the thread-local that
finds a thread's fan-out, so the worker count follows one rule. Only
``cli.run_command`` opens a run's backends and writes its stats file and
manifest, and only ``cli.Run.read`` raises ``MissingArtifactError``.
Only ``corpus.read_records`` decodes JSON text into records, so every
dataset file follows one rule (encoding, line or array form, unique ids,
errors that name the file and line); ``json.loads`` is called elsewhere
only by ``config.load_config``, which reads one config object, and by
``retrieval.load_index``, which reads the index header and goes when the
benchmark tracer stops naming it.
``json.dumps`` or ``json.dump`` with ``indent`` is called only by
``prompts._dump``, for values other than a non-empty list of strings, and by
``cli.write_json``, the one writer of manifests, stats and reports:
``indent`` makes the encoder build its text in pure Python, several times
slower than the C string encoder that ``_dump`` joins for the statement and
evidence lists of every Verifier prompt.
``raw_decode``, which finds JSON inside a longer text, is named only by
``synthesis.extract_json``, the one scan of model output, and by
``prompts.statement_count``, which reads back the one statements block
``prompts._query`` wrote: ``prompts`` alone knows a prompt's layout, so
the mock backend and the cascade read prompts through it, not by scanning.
No file is held whole in memory beside what is built from it: dataset
files are read a line at a time (``corpus.read_records``) and hashed 64 KiB
at a time (``corpus.sha256_file``). ``read_bytes``, ``read_text`` and a
``.read()`` without a size appear only in ``config.load_config`` (one
config object), ``cli.Run.instruction`` (one induced instruction) and
``retrieval.load_index`` (one index, read by no stage).
Only ``prompts._query`` names ``corpus.format_question``, so the subtask
alone decides what a prompt's input shows (the question, its CoT, the
statements, the evidence), for the cascade and the SFT export alike.
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


def imported_top_levels(source):
    """The top-level package of every absolute import, at any scope."""
    found = set()
    for _, node in nodes_by_function(source):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_detector_finds_imports_at_every_scope():
    source = (
        "import numpy.linalg as la\nfrom . import numpy\n\ndef f():\n"
        "    from numpy import asarray\n    import os, json\n"
    )
    assert imported_top_levels(source) == {"numpy", "os", "json"}


def test_no_package_module_imports_numpy():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "numpy" in imported_top_levels(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


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


def constructions(source, names, keyword=None):
    """(enclosing function, line) of each call to one of ``names``, bare or as an attribute;
    with ``keyword``, only the calls that pass that keyword argument."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names and (
                keyword is None or any(k.arg == keyword for k in node.keywords)
            ):
                found.append((function, node.lineno))
    return found


def constructions_outside(names, allowed, find=constructions):
    """File name -> what ``find`` reports for ``names`` in the package, except in the
    ``allowed`` set of (file name, function) pairs; ``find`` defaults to ``constructions``."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = find(path.read_text(encoding="utf-8"), names)
        found = [h for h in found if (path.name, h[0]) not in allowed]
        if found:
            offenders[path.name] = found
    return offenders


def test_no_import_by_call_in_package():
    """No module loads through ``importlib`` or ``__import__``, past the nested-import gate."""
    assert constructions_outside({"import_module", "__import__"}, set()) == {}


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
    assert constructions_outside(THREADS, {("backends.py", "fan_out")}) == {}


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
    assert constructions_outside(SEMAPHORES, {("backends.py", "CachingBackend.__init__")}) == {}


FAN_OUT_FEEDS = {"grow", "answered"}
FAN_OUT_GATE = ("backends.py", "CachingBackend._reach")


def test_detector_finds_fan_out_feeds_and_thread_local_reads_by_method():
    source = (
        "_fanning = threading.local()\n"
        "class _Drain:\n"
        "    def run(self):\n"
        "        _fanning.drain = self\n"
        "class CachingBackend:\n"
        "    def _reach(self):\n"
        "        drain = getattr(_fanning, 'drain', None)\n"
        "        drain.grow()\n"
        "        drain.answered(0.1, 0.0)\n"
        "def job(item):\n"
        "    backends._fanning.drain.grow\n"
        "    return answered(1.0, 1.0)\n"
    )
    assert constructions(source, FAN_OUT_FEEDS) == [
        ("CachingBackend._reach", 8),
        ("CachingBackend._reach", 9),
        ("job", 12),
    ]
    assert references(source, {"_fanning"}) == [
        ("_Drain.run", 4),
        ("CachingBackend._reach", 7),
        ("job", 11),
    ]


def test_only_caching_backend_reach_feeds_the_fan_out():
    """The fan-out's worker count follows what endpoint calls do, as ``_reach`` alone reports
    it: only that gate grows a fan-out or gives it a verdict, and only it and the fan-out's
    own tasks touch the thread-local that finds a thread's fan-out."""
    assert constructions_outside(FAN_OUT_FEEDS, {FAN_OUT_GATE}) == {}
    allowed = {FAN_OUT_GATE, ("backends.py", "_Drain.run")}
    assert constructions_outside({"_fanning"}, allowed, find=references) == {}


RUN_RECORDS = {"open_backends", "write_run_stats", "write_manifest"}


def test_only_run_command_opens_backends_and_writes_run_records():
    """One runner gives every subcommand its backends, its stats file and, last, its manifest."""
    assert constructions_outside(RUN_RECORDS, {("cli.py", "run_command")}) == {}


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


# every other JSON text the package decodes is model output, through synthesis.extract_json,
# or the statements block of a Verifier prompt, through prompts.statement_count
JSON_TEXT_READERS = {
    ("corpus.py", "read_records"),
    ("config.py", "load_config"),
    ("retrieval.py", "load_index"),
}


def test_only_read_records_decodes_dataset_json():
    """One reader holds the dataset file rule: no module decodes a JSON file of its own."""
    assert constructions_outside({"loads", "load"}, JSON_TEXT_READERS) == {}


# the functions that may decode JSON out of a longer text; the reason is in the module docstring
JSON_SCANNERS = {("synthesis.py", "extract_json"), ("prompts.py", "statement_count")}


def test_only_extract_json_and_the_statements_reader_scan_text_for_json():
    """Model output is searched for JSON in one place, and a prompt's layout is read in one."""
    assert constructions_outside({"raw_decode"}, JSON_SCANNERS, find=references) == {}


def test_detector_finds_calls_by_keyword():
    source = (
        "import json\n"
        "def f(v, fh):\n"
        "    json.dumps(v, indent=2)\n"
        "    json.dumps(v, ensure_ascii=False)\n"
        "    json.dump(v, fh, sort_keys=True, indent=1)\n"
        "    return dumps(v, sort_keys=True, indent=1)\n"
    )
    assert constructions(source, {"dumps", "dump"}, keyword="indent") == [
        ("f", 3), ("f", 5), ("f", 6)
    ]


# the functions that may write indented JSON; the reason is in the module docstring
INDENTED_JSON_WRITERS = {("prompts.py", "_dump"), ("cli.py", "write_json")}


def test_only_dump_fallback_and_the_document_writer_indent_json():
    """Prompt blocks reach the pure-Python encoder, which ``indent`` forces, only as a fallback."""

    def indented(source, names):
        return constructions(source, names, keyword="indent")

    assert constructions_outside({"dumps", "dump"}, INDENTED_JSON_WRITERS, find=indented) == {}


def whole_file_reads(source, names):
    """(enclosing function, line) of each call to one of ``names`` and of each
    ``.read()`` without a size: the calls that hold a whole file at once."""
    found = []
    for function, node in nodes_by_function(source):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in names or (name == "read" and not node.args and not node.keywords):
                found.append((function, node.lineno))
    return found


def test_detector_finds_whole_file_reads_only():
    source = (
        "def f(path, fh):\n"
        "    Path(path).read_bytes()\n"
        "    path.read_text(encoding='utf-8')\n"
        "    fh.read()\n"
        "    fh.read(65536)\n"
        "    fh.readinto(buffer)\n"
        "    fh.readline()\n"
        "class C:\n"
        "    def g(self):\n"
        "        return open(self.path).read()\n"
    )
    found = whole_file_reads(source, WHOLE_FILE_METHODS)
    assert found == [("f", 2), ("f", 3), ("f", 4), ("C.g", 10)]


WHOLE_FILE_METHODS = {"read_bytes", "read_text"}
# the reads that may hold a whole file; the reason is in the module docstring
WHOLE_FILE_READERS = {
    ("config.py", "load_config"),
    ("cli.py", "Run.instruction"),
    ("retrieval.py", "load_index"),
}


def test_only_small_files_are_read_whole():
    """Dataset files are read a line at a time and hashed a block at a time."""
    found = constructions_outside(WHOLE_FILE_METHODS, WHOLE_FILE_READERS, find=whole_file_reads)
    assert found == {}


def references(source, names):
    """(enclosing function, line) of each mention of one of ``names``, bare or as an
    attribute, called or passed on; a definition, an assignment to the bare name or an
    import is not a mention."""
    found = []
    for function, node in nodes_by_function(source):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            found.append((function, node.lineno))
    return found


def test_detector_finds_references_called_or_not():
    source = (
        "from .corpus import format_question\n"
        "def _row(example):\n"
        "    return format_question(example.instance)\n"
        "def f(xs):\n"
        "    return list(map(corpus.format_question, xs))\n"
        "def format_question(x):\n"
        "    return 'format_question'\n"
        "format_question = None\n"
    )
    assert references(source, {"format_question"}) == [("_row", 3), ("f", 5)]
    source = (
        "_DECODER = json.JSONDecoder()\n"
        "def extract_json(raw, i):\n"
        "    return _DECODER.raw_decode(raw, i)\n"
        "class MockBackend:\n"
        "    def _templated(self, text):\n"
        "        scan = json.JSONDecoder().raw_decode\n"
        "        return scan(text)\n"
    )
    found = references(source, {"raw_decode"})
    assert found == [("extract_json", 3), ("MockBackend._templated", 6)]


# the functions that may show a question; the reason is in the module docstring
QUESTION_FORMATTERS = {("prompts.py", "_query")}


def test_only_prompts_query_formats_questions():
    """Every prompt's input block comes from ``prompts._query``, decided by the subtask."""
    found = constructions_outside({"format_question"}, QUESTION_FORMATTERS, find=references)
    assert found == {}


def test_only_run_read_raises_missing_artifact():
    """Every upstream artifact is declared through ``Run.read``, the one place its check sits."""
    allowed = {("cli.py", "Run.read")}
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
