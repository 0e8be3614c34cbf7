"""The documentation set stays healthy: links resolve, code parses."""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.cli import build_parser
from repro.core.system import ViewMapSystem
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (path set up above)


class TestRepositoryDocs:
    def test_expected_documents_exist(self):
        names = {f.relative_to(REPO_ROOT).as_posix() for f in check_docs.doc_files()}
        assert "README.md" in names
        assert {
            "docs/architecture.md",
            "docs/protocol.md",
            "docs/stores.md",
        } <= names

    def test_no_broken_links_or_code_blocks(self):
        problems = [
            p for f in check_docs.doc_files() for p in check_docs.check_file(f)
        ]
        assert problems == []

    def test_documented_message_kinds_are_the_handler_registry(self):
        # a kind cannot stay documented after it is gone, or be
        # registered without being documented
        text = (REPO_ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
        section = text.split("\n## Message kinds\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^### `(\w+)`", section, flags=re.MULTILINE)
        with ViewMapSystem(key_bits=512, seed=1) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            assert sorted(documented) == sorted(server._handlers)

    def test_readme_flags_exist_in_the_cli_parser(self):
        # a removed flag cannot stay advertised (pytest's own are not ours)
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if "pytest" not in ln]
        advertised = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
        assert advertised, "README.md names no CLI flag: the pattern rotted"
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a.choices, dict)
        )
        known = {
            flag
            for command in subparsers.choices.values()
            for flag in command._option_string_actions
        }
        assert advertised <= known, sorted(advertised - known)


class TestCheckerCatchesRot:
    def test_broken_relative_link_reported(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("see [missing](nowhere/gone.md)\n")
        problems = check_docs.check_file(doc, root=tmp_path)
        assert any("broken link" in p for p in problems)

    def test_bad_python_block_reported(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("```python\ndef broken(:\n```\n")
        problems = check_docs.check_file(doc, root=tmp_path)
        assert any("does not parse" in p for p in problems)

    def test_clean_document_passes(self, tmp_path):
        (tmp_path / "other.md").write_text("# hi\n")
        doc = tmp_path / "README.md"
        doc.write_text(
            "# Title\n\nsee [other](other.md) and [top](#title)\n\n"
            "```python\nprint('ok')\n```\n"
        )
        assert check_docs.check_file(doc, root=tmp_path) == []

    def test_broken_anchor_reported(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("# Title\n\n[gone](#not-a-heading)\n")
        problems = check_docs.check_file(doc, root=tmp_path)
        assert any("broken anchor" in p for p in problems)

    def test_indented_fence_does_not_swallow_rest_of_file(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text(
            "# Title\n\n"
            "- a list item with code:\n\n"
            "  ```python\n"
            "  print('ok')\n"
            "  ```\n\n"
            "[gone](missing.md)\n"
        )
        problems = check_docs.check_file(doc, root=tmp_path)
        assert any("broken link" in p for p in problems)

    def test_indented_python_block_is_syntax_checked(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("- item:\n\n  ```python\n  def broken(:\n  ```\n")
        problems = check_docs.check_file(doc, root=tmp_path)
        assert any("does not parse" in p for p in problems)
