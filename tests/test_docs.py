"""The README matches the code: its commands parse, its library map is
complete and its dependency sentence names every scipy submodule the
sources import. Commands are parsed, never run."""

import os
import re
import shlex

import pytest

from pcda.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_section(title):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def command_lines():
    block = readme_section("Command line").split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pcda ")]


def test_command_line_block_has_every_subcommand():
    used = {shlex.split(line)[1] for line in command_lines()}
    assert used >= {"gen-bench", "train", "eval", "perplexity", "deform", "mixup"}


@pytest.mark.parametrize("line", command_lines())
def test_command_line_example_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.func


def test_library_map_lists_every_module():
    listed = re.findall(r"^\| `pcda\.(\w+)` \|", readme_section("Library map"), re.M)
    package = os.path.join(ROOT, "src", "pcda")
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")}
    assert sorted(listed) == sorted(modules - {"__init__"})


def test_dependency_sentence_names_every_scipy_import():
    section = readme_section("Install and test")
    sentence = section.split("Dependencies:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(scipy\.\w+)`", sentence))
    package = os.path.join(ROOT, "src", "pcda")
    imported = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                imported |= set(re.findall(r"^\s*(?:from|import) (scipy\.\w+)", fh.read(), re.M))
    assert imported
    assert named == imported
