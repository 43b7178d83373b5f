"""The docs name only commands and code that exist.

README.md, EXPERIMENTS.md and ``docs/*.md`` quote ``make`` targets and
``python -m repro`` command lines; so do the Makefile's recipes and the
docstrings of ``src/repro`` and ``examples``.  A deleted target, module,
sub-command, flag or option would otherwise go stale silently, so every
quoted one is checked against the Makefile and the CLI's own ``--help``,
down to the second sub-command level (``sweep <grid>``).  Every
backticked dotted name (``repro.run.run_specs``) in those docs and
DESIGN.md must import, or resolve as an attribute of what does.
"""

import ast
import functools
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
SOURCES = [*sorted((ROOT / "src" / "repro").rglob("*.py")), *sorted((ROOT / "examples").glob("*.py"))]

FENCE = re.compile(r"^```.*?$(.*?)^```", re.M | re.S)
INLINE = re.compile(r"`([^`]+)`")
MAKE = re.compile(r"^make\s+([\w-]+)")
CLI = re.compile(r"python3? -m (repro(?:\.\w+)*)(.*)", re.S)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
WORD = re.compile(r"[a-z][\w-]*")
#: An argparse usage line's sub-command choices (``{run,sweep,...} ...``,
#: where ``[{a,b} ...]`` is a list option's).
SUBCOMMANDS = re.compile(r"(?<!\[)\{([\w,-]+)\}\s+\.\.\.")
#: A dotted name at the start of an inline code span; one followed by
#: ``/`` is a schema id (``repro.obs.run/v1``), not code.
DOTTED = re.compile(r"(repro(?:\.\w+)+)(?![\w/])")


def _fragments(text: str) -> list[str]:
    """Command-like fragments: fenced lines (continuations joined, ``#``
    comments dropped) and inline code spans (which may wrap lines)."""
    out = []
    for block in FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            out.append(line.split(" #")[0])
    out.extend(INLINE.findall(FENCE.sub("", text)))
    return [" ".join(frag.split()) for frag in out if frag.strip()]


def _recipe_fragments(text: str) -> list[str]:
    """Makefile recipe lines, continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("\t")]


def _docstring_fragments(text: str) -> list[str]:
    """Inline code spans of every docstring (wrapped lines joined) and
    its literal-block lines that start with ``python``."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node) or ""
        out.extend(INLINE.findall(doc))
        out.extend(line.split(" #")[0] for line in INLINE.sub("", doc).splitlines()
                   if line.strip().startswith("python"))
    return [" ".join(frag.split()) for frag in out if frag.strip()]


@functools.cache
def _doc_fragments() -> list[tuple[str, str]]:
    found = [(doc.name, frag) for doc in DOCS for frag in _fragments(doc.read_text())]
    found += [("Makefile", frag)
              for frag in _recipe_fragments((ROOT / "Makefile").read_text())]
    for path in SOURCES:
        name = str(path.relative_to(ROOT))
        found += [(name, frag) for frag in _docstring_fragments(path.read_text())]
    return found


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


def _known_flags(module: str, path: tuple[str, ...], tokens: list[str]):
    """The flags a line naming sub-commands ``path`` and then ``tokens``
    may use, and the first word that names no sub-command (or None)."""
    text = _help(module, *path)
    found = SUBCOMMANDS.search(text)
    flags = set(FLAG.findall(text))
    if not found or len(path) == 2:
        return flags, None
    subs = found.group(1).split(",")
    if tokens and WORD.fullmatch(tokens[0]):
        if tokens[0] not in subs:
            return flags, " ".join([*path, tokens[0]])
        more, bad = _known_flags(module, (*path, tokens[0]), tokens[1:])
        return flags | more, bad
    # A line that names no sub-command here (``python -m repro sweep
    # --obs DIR``) may use any sub-command's flags.
    for sub in subs:
        flags |= _known_flags(module, (*path, sub), [])[0]
    return flags, None


def _cli_problems(fragments) -> list[str]:
    problems = []
    for doc, frag in fragments:
        for part in re.split(r"(?=python3? -m )", frag):
            m = CLI.match(part)
            if not m:
                continue
            module, rest = m.groups()
            if _help(module) is None:
                problems.append(f"{doc}: no CLI {module} ({part!r})")
                continue
            known, bad = _known_flags(module, (), rest.split())
            if bad:
                problems.append(f"{doc}: {module} has no {bad} ({part!r})")
            problems += [
                f"{doc}: {module} has no {flag} ({part!r})"
                for flag in FLAG.findall(rest) if flag not in known
            ]
    return problems


def test_docs_yield_commands():
    fragments = _doc_fragments()
    assert any(MAKE.match(frag) for _, frag in fragments)
    assert sum(bool(CLI.search(frag)) for _, frag in fragments) > 20
    quoted_in = {doc for doc, frag in fragments if CLI.search(frag)}
    assert "Makefile" in quoted_in
    assert any(doc.startswith("src/") for doc in quoted_in)


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
    "python -m repro nosuchcmd",
    "python -m repro sweep nosuchgrid --scale quick",
    "python -m repro sweep geo --topology my_matrix.json",
    "python -m repro sweep figures --no-over",
])
def test_checker_flags_stale_commands(stale):
    assert _cli_problems([("X.md", stale)])


def _resolves(name: str) -> bool:
    """``name`` is a module, or an attribute path below the longest
    importable module prefix of it."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _dotted_names(text: str) -> list[str]:
    spans = (" ".join(span.split()) for span in INLINE.findall(FENCE.sub("", text)))
    return [m.group(1) for span in spans if (m := DOTTED.match(span))]


def test_dotted_names_resolve():
    docs = [ROOT / "DESIGN.md", *DOCS]
    named = [(doc.name, name) for doc in docs for name in _dotted_names(doc.read_text())]
    assert len({name for _, name in named}) > 40
    stale = [f"{doc}: {name}" for doc, name in named if not _resolves(name)]
    assert not stale, stale


@pytest.mark.parametrize("text, stale", [
    ("`repro.bench.experiments.set_trace_dir`", ["repro.bench.experiments.set_trace_dir"]),
    ("`repro.nosuchpkg.thing`", ["repro.nosuchpkg.thing"]),
    ("`repro.run.run_specs(specs, then=)`", []),
    ("`repro.obs.run/v1`", []),
])
def test_checker_flags_stale_dotted_names(text, stale):
    assert [name for name in _dotted_names(text) if not _resolves(name)] == stale
