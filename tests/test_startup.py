"""What a fresh process loads before it sends an HTTP request.

The HTTP stack loads at the first request (see the ``backends``
docstring), so a process that sends none never imports it. These checks
run in a fresh interpreter, because the test process itself already
imports ``requests``.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

from tracedistill.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLE = ROOT / "sample_data"
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")

LOADED = f"""
import json, sys
before = set(sys.modules)
from tracedistill.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in {HTTP_STACK!r} if m in sys.modules and m not in before]
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""


def fresh_process(*argvs):
    """Run each CLI argv in order in one fresh interpreter: (exit codes, HTTP modules loaded).

    A module the interpreter had loaded before the package (a site ``.pth``
    file may import ``certifi``, say) is not counted.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["codes"], result["loaded"]


def unused_loopback_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_importing_the_cli_loads_no_http_module():
    assert fresh_process() == ([], [])


def test_cached_rerun_under_http_profiles_sends_nothing_and_loads_no_http_module(tmp_path):
    for name in ("config.json", "seed.jsonl", "pool.jsonl", "gold.jsonl"):
        shutil.copy(SAMPLE / name, tmp_path / name)
    config = tmp_path / "config.json"
    for command in ("induce", "synthesize", "filter", "infer", "eval"):
        assert main([command, "--config", str(config)]) == 0
    workdir = tmp_path / "workdir"
    outputs = ("predictions.jsonl", "eval_report.json")
    primed = {name: (workdir / name).read_bytes() for name in outputs}

    # the cache key holds the model and the call, not the kind, so every call is a hit
    raw = json.loads(config.read_text(encoding="utf-8"))
    endpoint = f"http://127.0.0.1:{unused_loopback_port()}/v1"
    for profile in raw["backends"].values():
        profile.update(kind="http", endpoint=endpoint, timeout=1, retry_budget=0)
    config.write_text(json.dumps(raw), encoding="utf-8")

    argv = ["--config", str(config)]
    assert fresh_process(["infer", *argv], ["eval", *argv]) == ([0, 0], [])
    stats = json.loads((workdir / "logs" / "infer_stats.json").read_text(encoding="utf-8"))
    assert stats["backend_calls"] == 0 and stats["cache_hits"] > 0
    for role in stats["backends"].values():
        assert set(role["inner_calls"].values()) == {0}
    assert {name: (workdir / name).read_bytes() for name in outputs} == primed
