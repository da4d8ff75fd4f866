"""Tests for the documentation checker (``repro.devtools.docscheck``)."""

import os

import pytest

from repro.cli import main
from repro.devtools.docscheck import check_file, check_repo, docs_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_repo(tmp_path, pages, modules=()):
    """Lay out a minimal repo: markdown pages plus a src/repro tree."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text('__all__ = ["generate_market"]\n')
    for module in modules:
        path = src
        parts = module.split("/")
        for part in parts[:-1]:
            path = path / part
            path.mkdir(exist_ok=True)
            init = path / "__init__.py"
            if not init.exists():
                init.write_text("")
        (path / parts[-1]).write_text('__all__ = ["helper"]\n')
    for name, text in pages.items():
        page = tmp_path / name
        page.parent.mkdir(parents=True, exist_ok=True)
        page.write_text(text)
    return tmp_path


def kinds(findings):
    return [(finding.kind, finding.line) for finding in findings]


class TestLinks:
    def test_live_relative_link_passes(self, tmp_path):
        root = make_repo(tmp_path, {
            "README.md": "see [docs](docs/index.md)\n",
            "docs/index.md": "back to [readme](../README.md)\n",
        })
        assert check_repo(str(root)) == []

    def test_dead_relative_link_is_flagged(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "see [gone](missing.md)\n",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-link", 1)]
        assert "missing.md" in findings[0].detail

    def test_external_links_and_anchors_are_ignored(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": (
                "[a](https://example.org/x.md) [b](mailto:x@y.z) "
                "[c](#section)\n"
            ),
        })
        assert check_repo(str(root)) == []

    def test_fragment_is_stripped_before_resolving(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "[a](other.md#part)\n",
            "docs/other.md": "hello\n",
        })
        assert check_repo(str(root)) == []

    def test_fenced_code_blocks_are_skipped(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "```\n[fake](missing.md) `repro.not_real`\n```\n",
        })
        assert check_repo(str(root)) == []


class TestModuleRefs:
    def test_existing_module_passes(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.synth.cache` is real\n",
        }, modules=["synth/cache.py"])
        assert check_repo(str(root)) == []

    def test_missing_module_is_flagged(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.nowhere` drifted\n",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-module", 1)]
        assert "repro.nowhere" in findings[0].detail

    def test_exported_name_passes_unexported_fails(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": (
                "`repro.synth.cache.helper` exported\n"
                "`repro.synth.cache.secret` not exported\n"
            ),
        }, modules=["synth/cache.py"])
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-module", 2)]

    def test_class_name_tail_accepted_structurally(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.synth.cache.SomeClass` reads fine\n",
        }, modules=["synth/cache.py"])
        assert check_repo(str(root)) == []

    def test_package_all_covers_top_level_reexports(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.generate_market` re-exported\n",
        })
        assert check_repo(str(root)) == []


class TestRepoPaths:
    def test_old_bench_spelling_is_flagged(self, tmp_path):
        root = make_repo(tmp_path, {
            "DESIGN.md": (
                "| Table 6 | `benchmarks/bench_table06_latent_classes.py` |\n"
                "| Table 6 | `benchmarks/bench_table6_latent_classes.py` |\n"
            ),
            "benchmarks/bench_table06_latent_classes.py": "",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-path", 2)]
        assert "bench_table6_latent_classes.py" in findings[0].detail

    def test_paths_inside_commands_and_node_ids(self, tmp_path):
        root = make_repo(tmp_path, {
            "EXPERIMENTS.md": (
                "run `python scripts/gone.py --fast` or\n"
                "`tests/test_x.py::TestY::test_z`\n"
            ),
            "tests/test_x.py": "",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-path", 1)]
        assert "scripts/gone.py" in findings[0].detail

    def test_placeholders_and_plain_prose_are_ignored(self, tmp_path):
        root = make_repo(tmp_path, {
            "README.md": (
                "`benchmarks/results/<id>.txt` and `tests/test_*.py`;\n"
                "prose mentioning benchmarks/nowhere.py is not code\n"
            ),
        })
        assert check_repo(str(root)) == []


class TestDiscoveryAndCli:
    def test_docs_files_covers_readme_and_docs_tree(self, tmp_path):
        root = make_repo(tmp_path, {
            "README.md": "x\n",
            "DESIGN.md": "x\n",
            "EXPERIMENTS.md": "x\n",
            "docs/index.md": "x\n",
            "docs/deep/page.md": "x\n",
            "docs/notes.txt": "not markdown\n",
        })
        names = [os.path.relpath(p, root) for p in docs_files(str(root))]
        assert names[:3] == ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        assert set(names) == {"README.md", "DESIGN.md", "EXPERIMENTS.md",
                              "docs/index.md", "docs/deep/page.md"}

    def test_cli_exit_codes_and_summary(self, tmp_path, capsys):
        root = make_repo(tmp_path, {"docs/index.md": "[gone](missing.md)\n"})
        assert main(["docscheck", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "docscheck: failed" in out
        assert "dead-link" in out

        (root / "docs" / "missing.md").write_text("found now\n")
        assert main(["docscheck", "--root", str(root)]) == 0
        assert "docscheck: ok" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        root = make_repo(tmp_path, {"docs/index.md": "`repro.nope`\n"})
        assert main(["docscheck", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "dead-module"

    def test_check_file_reports_root_relative_paths(self, tmp_path):
        root = make_repo(tmp_path, {"docs/index.md": "[gone](missing.md)\n"})
        findings = check_file(str(root / "docs" / "index.md"), str(root))
        assert findings[0].path == os.path.join("docs", "index.md")


class TestSelfCheck:
    def test_repository_docs_are_clean(self):
        assert check_repo(REPO_ROOT) == []

    def test_run_contract_page_is_covered(self):
        # The runs lifecycle doc must exist, be scanned, and its
        # `repro.runs.*` references must resolve against src/ — a
        # renamed store module shows up here, not months later.
        scanned = {os.path.basename(path) for path in docs_files(REPO_ROOT)}
        assert "run-contract.md" in scanned
        page = os.path.join(REPO_ROOT, "docs", "run-contract.md")
        with open(page, "r", encoding="utf-8") as handle:
            text = handle.read()
        for ref in ("repro.runs.contract", "repro.runs.store"):
            assert ref in text, f"run-contract.md should reference {ref}"
        assert check_file(page, REPO_ROOT) == []
