"""The docs stay usable: every ``repro`` command line in a fenced block of
README.md or docs/*.md parses with the CLI's own parser, and every
relative markdown link to a ``.md`` file (and its ``#anchor``) resolves."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

FENCE = re.compile(r"^ *```[^\n]*\n(.*?)^ *```", re.S | re.M)
COMMAND = re.compile(r"^(?:\w+=\S+\s+)*(?:python3? -m repro|repro)\s")
LINK = re.compile(r"\]\(([^)\s:]*?\.md)?(?:#([^)\s]+))?\)")


def command_lines():
    for path in DOCS:
        for block in FENCE.findall(path.read_text(encoding="utf-8")):
            for line in block.replace("\\\n", " ").splitlines():
                line = line.strip()
                if COMMAND.match(line):
                    yield pytest.param(line, id=f"{path.name}: {line[:60]}")


def argv(line):
    """The arguments after ``repro``: environment assignments, the
    interpreter, comments and any redirection dropped."""
    words = shlex.split(line, comments=True)
    words = words[words.index("repro") + 1:] if "repro" in words else words
    for stop in (">", "|"):
        if stop in words:
            words = words[: words.index(stop)]
    return words


@pytest.mark.parametrize("line", list(command_lines()))
def test_every_documented_command_parses(line):
    try:
        build_parser().parse_args(argv(line))
    except SystemExit as exc:  # argparse exits 2 on a usage error
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")


def anchors(path):
    """GitHub's heading anchors: lower case, punctuation dropped, spaces
    as hyphens."""
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    return {
        re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")
        for heading in re.findall(r"^#+ (.*)$", text, re.M)
    }


def links():
    for path in DOCS:
        text = FENCE.sub("", path.read_text(encoding="utf-8"))
        for target, anchor in LINK.findall(text):
            if target or anchor:
                yield pytest.param(
                    path, target, anchor, id=f"{path.name} -> {target}#{anchor}"
                )


@pytest.mark.parametrize("source, target, anchor", list(links()))
def test_every_relative_markdown_link_resolves(source, target, anchor):
    linked = (source.parent / target).resolve() if target else source
    assert linked.is_file(), f"{source.name} links to a missing {target}"
    if anchor:
        assert anchor in anchors(linked), (
            f"{source.name} links to {target}#{anchor}, which has no such heading"
        )


def test_the_scan_finds_the_documented_commands():
    assert len(list(command_lines())) >= 20
