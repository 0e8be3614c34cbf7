"""Documentation checker: links resolve, code parses, tables match the code.

Scans the repo's markdown set (README.md plus everything under docs/)
and reports:

* relative links or images pointing at files that do not exist;
* fenced ``python`` code blocks that fail to compile (syntax check
  only — blocks are never executed);
* in-page anchors (``[...](#section)``) without a matching heading;
* generated blocks that differ from what the code renders today: a
  block opens with ``<!-- generated: dtype NAME -->`` (a numpy record
  layout) or ``<!-- generated: structs NAME... -->`` (``struct.Struct``
  sizes), names dotted paths under ``repro``, and closes with
  ``<!-- end generated -->``;
* documented message kinds, metric names and CLI flags that are not
  exactly the ones ``src/`` registers, records and declares;
* references that do not resolve: a ``docs/*.md`` file (and
  ``#anchor``) named in ``src/``, ``tests/`` or ``tools/``, and a
  ``tests/...py`` file or ``tests/...py::name`` cited in the docs;
* a timing or memory figure written into ``docs/`` by hand: a number
  in a doc is pinned by a cited test or a named constant, or it goes.

Run as ``PYTHONPATH=src python tools/check_docs.py`` (the CI docs job
and ``tests/util/test_docs.py`` do); ``--write`` re-renders every
generated block in place.  Exit code 0 = clean, 1 = problems (listed
one per line on stderr).
"""

from __future__ import annotations

import argparse
import ast
import difflib
import importlib
import re
import struct
import sys
import textwrap
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown inline links/images: [text](target) — shortest-match target
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: fence opener, possibly indented (e.g. inside a list item)
_FENCE_RE = re.compile(r"^\s*```(\w*)\s*$")
_HEADING_RE = re.compile(r"^#+\s+(.*?)\s*$")
#: a generated block: its spec line, its body, its closing marker
_BLOCK_RE = re.compile(
    r"(<!-- generated: (\w+) ([^>]*?) -->\n)(.*?)(<!-- end generated -->)", re.DOTALL
)
#: a hand-written timing or memory figure
_MEASUREMENT_RE = re.compile(r"[0-9] ?(ms|µs|us|MiB)\b|[0-9.]+ ?[x×] (faster|slower)")
#: a docs file, optionally with an anchor, named outside the docs
_DOC_REF_RE = re.compile(r"docs/([\w-]+\.md)(?:#([\w-]+))?")
#: a test file, optionally with its class and test names, cited in the docs
_TEST_REF_RE = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)*)")
#: the registry methods that record a metric under their first argument
_RECORDERS = ("inc", "observe", "set_gauge")


def doc_files(root: Path = REPO_ROOT) -> list[Path]:
    """The markdown set the checker covers."""
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    return [f for f in files if f.is_file()]


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor slug for one heading line."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _strip_fences(text: str) -> tuple[str, list[tuple[int, str, str]]]:
    """Split markdown into prose and fenced blocks.

    Returns the prose (fence bodies blanked, line count preserved) and a
    list of (start line, language, body) per fenced block.
    """
    prose_lines: list[str] = []
    blocks: list[tuple[int, str, str]] = []
    in_fence = False
    language = ""
    body: list[str] = []
    start = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        fence = _FENCE_RE.match(line)
        if fence and not in_fence:
            in_fence, language, body, start = True, fence.group(1), [], lineno
            prose_lines.append("")
        elif line.strip() == "```" and in_fence:
            in_fence = False
            blocks.append((start, language, textwrap.dedent("\n".join(body))))
            prose_lines.append("")
        elif in_fence:
            body.append(line)
            prose_lines.append("")
        else:
            prose_lines.append(line)
    return "\n".join(prose_lines), blocks


def _anchors(path: Path) -> set[str]:
    """The anchor of every heading in one markdown file."""
    prose, _ = _strip_fences(path.read_text(encoding="utf-8"))
    return {
        _anchor_of(m.group(1))
        for m in (_HEADING_RE.match(line) for line in prose.splitlines())
        if m
    }


def check_file(path: Path, root: Path = REPO_ROOT) -> list[str]:
    """Broken links, anchors and python blocks in one markdown file."""
    problems: list[str] = []
    prose, blocks = _strip_fences(path.read_text(encoding="utf-8"))
    anchors = _anchors(path)

    for match in _LINK_RE.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external links: not checked offline
        target, _, anchor = target.partition("#")
        if not target:
            if anchor and anchor not in anchors:
                problems.append(f"{path}: broken anchor '#{anchor}'")
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{path}: broken link '{target}'")
        elif root not in resolved.parents and resolved != root:
            problems.append(f"{path}: link escapes the repository: '{target}'")
        elif anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
            problems.append(f"{path}: broken anchor '{target}#{anchor}'")

    for lineno, language, body in blocks:
        if language.lower() not in ("python", "py"):
            continue
        try:
            compile(body, f"{path}:{lineno}", "exec")
        except SyntaxError as exc:
            problems.append(f"{path}:{lineno}: python block does not parse: {exc}")
    return problems


# -- generated blocks -----------------------------------------------------


def _resolve(dotted: str):
    """The object a dotted ``package.module.NAME`` path names."""
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _byte_order(dtype: np.dtype) -> str:
    if dtype.fields is not None:
        return "per field"
    return {">": "big", "<": "little", "=": "native"}.get(dtype.byteorder, "—")


def _render_dtype(dotted: str) -> str:
    """One row per field: offset, size and byte order, then the total."""
    dtype = _resolve(dotted)
    rows = [
        "| field | offset | bytes | element | byte order |",
        "|-------|-------:|------:|---------|------------|",
    ]
    for name, (field, offset) in dtype.fields.items():
        base, shape = field.base, field.shape
        element = f"{base.itemsize} B record" if base.fields else base.str[1:]
        if shape:
            element += " × " + " × ".join(map(str, shape))
        rows.append(
            f"| `{name}` | {offset} | {field.itemsize} | {element} | {_byte_order(base)} |"
        )
    rows.append(f"| *total* | | {dtype.itemsize} | | |")
    return "\n".join(rows)


def _render_structs(*dotted: str) -> str:
    """Format and size of each named ``struct.Struct``."""
    orders = {">": "big", "!": "big", "<": "little"}
    rows = ["| struct | format | bytes | byte order |", "|--------|--------|------:|------------|"]
    for name in dotted:
        packer: struct.Struct = _resolve(name)
        order = orders.get(packer.format[0], "native")
        rows.append(f"| `{name}` | `{packer.format}` | {packer.size} | {order} |")
    return "\n".join(rows)


_RENDERERS = {"dtype": _render_dtype, "structs": _render_structs}


def _rendered(match: re.Match) -> str:
    return _RENDERERS[match.group(2)](*match.group(3).split()) + "\n"


def _rewritten(match: re.Match) -> str:
    """A block re-rendered between its markers (an unknown kind as it was)."""
    if match.group(2) not in _RENDERERS:
        return match.group(0)
    return match.group(1) + _rendered(match) + match.group(5)


def generated_problems(files: list[Path] | None = None, write: bool = False) -> list[str]:
    """Every generated block that differs from a fresh rendering.

    With ``write`` the stale blocks are rewritten instead of reported.
    """
    problems: list[str] = []
    for path in doc_files() if files is None else files:
        text = path.read_text(encoding="utf-8")
        for match in _BLOCK_RE.finditer(text):
            if match.group(2) not in _RENDERERS:
                problems.append(f"{path}: unknown generated block '{match.group(2)}'")
                continue
            fresh = _rendered(match)
            if fresh != match.group(4) and not write:
                diff = difflib.unified_diff(
                    match.group(4).splitlines(), fresh.splitlines(), "doc", "code", lineterm=""
                )
                problems.append(
                    f"{path}: generated block '{match.group(3)}' is stale "
                    "(run tools/check_docs.py --write):\n" + "\n".join(diff)
                )
        if write:
            new = _BLOCK_RE.sub(_rewritten, text)
            if new != text:
                path.write_text(new, encoding="utf-8")
    return problems


# -- lists that mirror src/ -----------------------------------------------


def _section(text: str, heading: str) -> str:
    """The body of one ``## heading`` section."""
    parts = text.split(f"\n## {heading}\n", 1)
    return parts[1].split("\n## ", 1)[0] if len(parts) == 2 else ""


def _table_rows(section: str) -> list[list[str]]:
    """The cells of each body row of the first table in a section."""
    lines = section.splitlines()
    start = next((i for i, line in enumerate(lines) if re.match(r"^\|[\s|:-]+\|$", line)), None)
    rows = []
    for line in lines[start + 1 :] if start is not None else []:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _set_problems(what: str, documented: set, actual: set) -> list[str]:
    problems = [f"{what} documented but not in src/: {x}" for x in sorted(documented - actual)]
    problems += [f"{what} in src/ but not documented: {x}" for x in sorted(actual - documented)]
    return problems


def kind_problems(root: Path = REPO_ROOT) -> list[str]:
    """``docs/protocol.md``'s message kinds against the handler registry."""
    from repro.net.server import ViewMapServer

    text = (root / "docs" / "protocol.md").read_text(encoding="utf-8")
    documented = {row[0].strip("`") for row in _table_rows(_section(text, "Message kinds"))}
    return _set_problems("message kind", documented, set(ViewMapServer._handlers))


def _metric_name(node: ast.expr) -> str | None:
    """A literal metric name; an f-string field renders as ``<field>``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else f"<{ast.unparse(part.value)}>"
            for part in node.values
        )
    return None


def recorded_metrics(src: Path = REPO_ROOT / "src") -> set[str]:
    """The names ``src/`` passes to ``inc``, ``observe``, ``set_gauge``
    and ``stage_timer``.

    A name that opens with a field is the registry forwarding its
    caller's name (``f"{stage}.wall_s"``), not a metric of its own.
    """
    names = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _RECORDERS and node.args:
                name = _metric_name(node.args[0])
            elif getattr(func, "id", getattr(func, "attr", None)) == "stage_timer":
                name = _metric_name(node.args[1]) if len(node.args) > 1 else None
            else:
                continue
            if name is not None and not name.startswith("<"):
                names.add(name)
    return names


def metric_problems(root: Path = REPO_ROOT) -> list[str]:
    """``docs/observability.md``'s metric table against ``src/``."""
    text = (root / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = {
        name
        for row in _table_rows(_section(text, "Metric names"))
        for name in re.findall(r"`([^`]+)`", row[0])
    }
    return _set_problems("metric", documented, recorded_metrics(root / "src"))


def flag_problems(root: Path = REPO_ROOT) -> list[str]:
    """README's flag table against ``cli.COMMANDS``, command by command
    (every flag a command declares is a key of ``cli.FLAGS``)."""
    from repro.cli import COMMANDS

    text = (root / "README.md").read_text(encoding="utf-8")
    documented = set()
    for row in _table_rows(_section(text, "CLI flags")):
        for flag in re.findall(r"`(--[\w-]+)", row[0]):
            documented |= {(flag, cmd) for cmd in re.findall(r"`(\w+)`", row[1])}
    declared = {(flag, name) for name, (_, _, flags) in COMMANDS.items() for flag in flags.split()}
    return _set_problems("flag/command", documented, declared)


# -- references -----------------------------------------------------------


def _defines(path: Path, names: list[str]) -> bool:
    """Whether a test module defines ``names``, a pytest id's
    ``Class::test`` path (a name may also be a module-level alias)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = next((node for node in body if name in _bound_names(node)), None)
        if found is None:
            return False
        body = found.body if isinstance(found, ast.ClassDef) else []
    return True


def _bound_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {target.id for target in node.targets if isinstance(target, ast.Name)}
    return set()


def reference_problems(root: Path = REPO_ROOT) -> list[str]:
    """Doc files named by the code, and tests cited by the docs, exist."""
    problems = []
    for tree in ("src", "tests", "tools"):
        for path in sorted((root / tree).rglob("*.py")):
            for doc, anchor in _DOC_REF_RE.findall(path.read_text(encoding="utf-8")):
                target = root / "docs" / doc
                if not target.is_file():
                    problems.append(f"{path}: names missing docs/{doc}")
                elif anchor and anchor not in _anchors(target):
                    problems.append(f"{path}: names missing section docs/{doc}#{anchor}")
    for doc in doc_files(root):
        for test, names in _TEST_REF_RE.findall(doc.read_text(encoding="utf-8")):
            if not (root / test).is_file():
                problems.append(f"{doc}: cites missing {test}")
            elif not _defines(root / test, names.split("::")[1:]):
                problems.append(f"{doc}: cites missing {test}{names}")
    return problems


def measurement_problems(root: Path = REPO_ROOT) -> list[str]:
    """Timing or memory figures in ``docs/``, outside generated blocks."""
    problems = []
    for doc in sorted((root / "docs").glob("*.md")):
        text = _BLOCK_RE.sub(lambda m: "\n" * m.group(0).count("\n"), doc.read_text("utf-8"))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if _MEASUREMENT_RE.search(line):
                problems.append(f"{doc}:{lineno}: states a measurement: {line.strip()}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Check the whole documentation set; print problems to stderr."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-render generated blocks")
    args = parser.parse_args(argv)
    files = doc_files()
    if not files:
        print("no documentation files found", file=sys.stderr)
        return 1
    problems = [p for f in files for p in check_file(f)]
    problems += generated_problems(files, write=args.write)
    problems += kind_problems() + metric_problems() + flag_problems()
    problems += reference_problems() + measurement_problems()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} files: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
