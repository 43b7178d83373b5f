"""The docs name only commands that exist.

README.md, EXPERIMENTS.md and ``docs/*.md`` quote ``make`` targets and
``python -m repro.<pkg>`` command lines.  A deleted target, module,
sub-command flag or option would otherwise go stale silently, so every
quoted one is checked against the Makefile and the CLI's own ``--help``.
"""

import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^```.*?$(.*?)^```", re.M | re.S)
INLINE = re.compile(r"`([^`]+)`")
MAKE = re.compile(r"^make\s+([\w-]+)")
CLI = re.compile(r"python3? -m (repro\.\w+)(.*)", re.S)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
WORD = re.compile(r"[a-z][\w-]*")


def _fragments(text: str) -> list[str]:
    """Command-like fragments: fenced lines (continuations joined, ``#``
    comments dropped) and inline code spans (which may wrap lines)."""
    out = []
    for block in FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            out.append(line.split(" #")[0])
    out.extend(INLINE.findall(FENCE.sub("", text)))
    return [" ".join(frag.split()) for frag in out if frag.strip()]


@functools.cache
def _doc_fragments() -> list[tuple[str, str]]:
    return [(doc.name, frag) for doc in DOCS for frag in _fragments(doc.read_text())]


@functools.cache
def _help(module: str, *sub: str) -> str | None:
    """``--help`` text of a CLI (or one sub-command); None if there is no
    such module, ``__main__`` or sub-command."""
    proc = subprocess.run(
        [sys.executable, "-m", module, *sub, "--help"],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    return proc.stdout if proc.returncode == 0 else None


def _cli_problems(fragments) -> list[str]:
    problems = []
    for doc, frag in fragments:
        for part in re.split(r"(?=python3? -m )", frag):
            m = CLI.match(part)
            if not m:
                continue
            module, rest = m.groups()
            top = _help(module)
            if top is None:
                problems.append(f"{doc}: no CLI {module} ({part!r})")
                continue
            choices = re.search(r"\{([\w,-]+)\}", top)
            subs = choices.group(1).split(",") if choices else []
            tokens = rest.split()
            if subs and tokens and WORD.fullmatch(tokens[0]) and tokens[0] not in subs:
                problems.append(f"{doc}: {module} has no {tokens[0]} ({part!r})")
            # The sub-command named on the line; a line that names none
            # (``python -m repro.load ... --obs DIR``) may use any.
            named = [tok for tok in tokens if tok in subs] or subs
            known = set(FLAG.findall(top + "".join(_help(module, sub) for sub in named)))
            problems += [
                f"{doc}: {module} has no {flag} ({part!r})"
                for flag in FLAG.findall(rest) if flag not in known
            ]
    return problems


def test_docs_yield_commands():
    fragments = _doc_fragments()
    assert any(MAKE.match(frag) for _, frag in fragments)
    assert sum(bool(CLI.search(frag)) for _, frag in fragments) > 20


def test_make_targets_exist():
    targets = set(re.findall(r"^([\w-]+):", (ROOT / "Makefile").read_text(), re.M))
    missing = [
        f"{doc}: make {m.group(1)}"
        for doc, frag in _doc_fragments()
        if (m := MAKE.match(frag)) and m.group(1) not in targets
    ]
    assert not missing, missing


def test_cli_modules_and_flags_exist():
    problems = _cli_problems(_doc_fragments())
    assert not problems, problems


@pytest.mark.parametrize("stale", [
    "python -m repro.nosuchpkg record --quick",
    "python -m repro.prof nosuchcmd",
    "python -m repro.load sweep --no-such-flag F.json",
])
def test_checker_flags_stale_commands(stale):
    assert _cli_problems([("X.md", stale)])
