"""The documentation set stays healthy: links resolve, code parses, and
every layout, kind, metric, flag and cited test matches the code."""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.cli import build_parser

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
        assert check_docs.kind_problems() == []

    def test_generated_layouts_match_the_code(self):
        # every byte layout in the docs is the rendering of its dtype or
        # struct today: a renamed, resized or reordered field fails here
        assert check_docs.generated_problems() == []

    def test_documented_metrics_are_the_recorded_names(self):
        assert check_docs.metric_problems() == []

    def test_readme_flag_table_is_the_cli(self):
        assert check_docs.flag_problems() == []

    def test_doc_references_resolve(self):
        # docs named by the code exist, and every test the docs cite
        assert check_docs.reference_problems() == []

    def test_docs_state_no_measurements(self):
        assert check_docs.measurement_problems() == []

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


def _checked_root(tmp_path: Path, docs: dict[str, str], src: str = "", readme: str = "") -> Path:
    """A repository skeleton: a README, the given docs, one ``src`` module."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(src)
    (tmp_path / "README.md").write_text(readme)
    for name, text in docs.items():
        (tmp_path / "docs" / name).write_text(text)
    return tmp_path


class TestGeneratedBlocks:
    SPEC = "<!-- generated: dtype repro.core.viewdigest.PACKED_DIGEST_DTYPE -->\n"

    def test_stale_block_reported_with_a_diff_and_rewritten(self, tmp_path):
        doc = tmp_path / "layout.md"
        doc.write_text("# Layout\n\n" + self.SPEC + "| `t` | 0 | 4 |\n<!-- end generated -->\n")
        problems = check_docs.generated_problems([doc])
        assert len(problems) == 1 and "stale" in problems[0]
        assert "+| `chain_hash` | 56 | 16 |" in problems[0]
        assert check_docs.generated_problems([doc], write=True) == []
        assert check_docs.generated_problems([doc]) == []
        assert doc.read_text().startswith("# Layout\n\n" + self.SPEC + "| field |")

    def test_struct_sizes_render_from_the_struct(self):
        table = check_docs._render_structs("repro.store.segments._HEADER")
        assert "| `repro.store.segments._HEADER` | `<II` | 8 | little |" in table


class TestListChecks:
    def test_unrecorded_and_undocumented_metrics_reported(self, tmp_path):
        table = "# Obs\n\n## Metric names\n\n| metric |\n|---|\n| `a.b`, `c.<kind>` |\n"
        src = (
            "def f(metrics, kind, n):\n"
            "    metrics.inc('a.b')\n"
            "    metrics.observe(f'c.{kind}', 1.0)\n"
            "    metrics.set_gauge('d.e', 2.0)\n"
            "    metrics.inc(n)\n"
        )
        root = _checked_root(tmp_path, {"observability.md": table}, src)
        assert check_docs.metric_problems(root) == ["metric in src/ but not documented: d.e"]

    def test_stage_timer_names_are_recorded_names(self, tmp_path):
        src = "def f(r):\n    with stage_timer(r, 'x.y'):\n        pass\n"
        root = _checked_root(tmp_path, {"observability.md": ""}, src)
        assert check_docs.metric_problems(root) == ["metric in src/ but not documented: x.y"]

    def test_a_flag_on_the_wrong_command_is_reported(self, tmp_path):
        readme = "# R\n\n## CLI flags\n\n| flag | commands |\n|-|-|\n| `--workers` | `fig21` |\n"
        root = _checked_root(tmp_path, {}, readme=readme)
        problems = check_docs.flag_problems(root)
        assert "flag/command documented but not in src/: ('--workers', 'fig21')" in problems
        assert "flag/command in src/ but not documented: ('--workers', 'stream')" in problems

    def test_a_kind_missing_from_the_table_is_reported(self, tmp_path):
        protocol = "# P\n\n## Message kinds\n\n| kind |\n|---|\n| `upload_vp_batch` |\n"
        root = _checked_root(tmp_path, {"protocol.md": protocol})
        problems = check_docs.kind_problems(root)
        assert "message kind in src/ but not documented: query_view" in problems
        assert not any("upload_vp_batch" in p for p in problems)


class TestReferenceChecks:
    def test_missing_cited_test_file_and_function_reported(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(
            "class TestA:\n    def test_here(self):\n        pass\n"
        )
        doc = (
            "`tests/test_x.py::TestA::test_here` "
            "`tests/test_x.py::test_here` "
            "`tests/test_x.py::TestA::test_gone` "
            "`tests/test_gone.py`\n"
        )
        root = _checked_root(tmp_path, {"a.md": doc})
        assert check_docs.reference_problems(root) == [
            f"{root / 'docs' / 'a.md'}: cites missing tests/test_x.py::test_here",
            f"{root / 'docs' / 'a.md'}: cites missing tests/test_x.py::TestA::test_gone",
            f"{root / 'docs' / 'a.md'}: cites missing tests/test_gone.py",
        ]

    def test_missing_doc_and_section_named_in_code_reported(self, tmp_path):
        src = '"""See ``docs/' + 'a.md#here``, ``docs/' + 'a.md#gone`` and ``docs/' + 'b.md``."""\n'
        root = _checked_root(tmp_path, {"a.md": "# Here\n"}, src)
        problems = check_docs.reference_problems(root)
        assert [p.split(": ", 1)[1] for p in problems] == [
            "names missing section docs/" + "a.md#gone",
            "names missing docs/" + "b.md",
        ]

    def test_timing_figure_reported_outside_generated_blocks(self, tmp_path):
        doc = (
            "a write takes 3.2 ms\n\n"
            "<!-- generated: structs x -->\nbuilt in 4 ms\n<!-- end generated -->\n"
            "2x faster\n"
        )
        root = _checked_root(tmp_path, {"a.md": doc})
        problems = check_docs.measurement_problems(root)
        assert [p.split(": ", 1)[0].rsplit(":", 1)[1] for p in problems] == ["1", "6"]
