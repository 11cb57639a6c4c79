"""Documented command lines must parse with the real CLI parser, and the
README must name every config setting.

Every usage line in the `cli` module docstring and every `tracedistill ...`
line in the README Quickstart is parsed with `build_parser()`: once with
its required part alone, then once per `[...]` group and per `|`
alternative inside a group. A flag removed from the parser but left in the
docs fails here. The README Configuration section must name, in backticks,
every top-level config key, every backend profile field and every match
policy field, so a setting added to the code but not the docs fails too.
The Pipeline stages row for `export` must name one file per
`corpus.SUBTASKS` entry, and the Data formats paragraph on SFT exports
the current `corpus.SFT_HEADER`, so an added export file or a header bump
cannot go undocumented.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from tracedistill import cli
from tracedistill.backends import BackendProfile, ConfigError
from tracedistill.config import CONFIG_KEYS
from tracedistill.corpus import SFT_HEADER, SUBTASKS
from tracedistill.evalharness import MatchPolicy

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _quickstart_lines():
    section = _readme_section("Quickstart")
    return [line.strip() for line in section.splitlines() if line.strip().startswith("tracedistill ")]


def _usage_lines():
    return [line.strip() for line in cli.__doc__.splitlines() if line.strip().startswith("tracedistill ")]


def _variants(line):
    """The required part alone, then with each optional alternative added."""
    words = line.split()[1:]
    text = " ".join(words)
    base = re.sub(r"\[[^\]]*\]", " ", text).split()
    yield base
    for group in re.findall(r"\[([^\]]*)\]", text):
        for alternative in group.split("|"):
            yield base + alternative.split()


def test_docs_name_every_subcommand():
    usage = {line.split()[1] for line in _usage_lines()}
    quickstart = {line.split()[1] for line in _quickstart_lines()}
    assert usage == quickstart == set(cli.COMMANDS)


@pytest.mark.parametrize("line", _usage_lines() + _quickstart_lines())
def test_documented_command_line_parses(line):
    parser = cli.build_parser()
    for argv in _variants(line):
        try:
            parser.parse_args(argv)
        except ConfigError as exc:
            pytest.fail(f"documented command {' '.join(argv)!r} does not parse: {exc}")


def test_configuration_names_every_setting():
    section = _readme_section("Configuration")
    names = list(CONFIG_KEYS)
    names += [f.name for cls in (BackendProfile, MatchPolicy) for f in fields(cls)]
    missing = [name for name in names if f"`{name}`" not in section]
    assert not missing, f"README Configuration does not name {missing}"


def test_export_row_names_one_file_per_subtask():
    rows = _readme_section("Pipeline stages").splitlines()
    [row] = [line for line in rows if line.startswith("| `export`")]
    [files] = re.findall(r"`sft/\{strategy\}_\{([^}]*)\}\.jsonl`", row)
    assert sorted(files.split(",")) == sorted(SUBTASKS)


def test_sft_exports_paragraph_names_the_header():
    paragraphs = _readme_section("Data formats").split("\n\n")
    [paragraph] = [p for p in paragraphs if p.startswith("SFT exports")]
    assert f"`{SFT_HEADER}`" in paragraph
