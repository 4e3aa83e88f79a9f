"""The docs link checker (tools/check_docs_links.py) — the repo's own
docs must pass it, and it must actually catch rot."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs_links", REPO_ROOT / "tools" / "check_docs_links.py")
check_docs_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs_links)


def test_repo_docs_have_no_dangling_links():
    assert check_docs_links.dangling(REPO_ROOT) == []


def test_main_exit_status(capsys):
    assert check_docs_links.main(["check_docs_links.py",
                                  str(REPO_ROOT)]) == 0
    assert "docs links OK" in capsys.readouterr().out


def test_detects_dangling_markdown_link(tmp_path):
    (tmp_path / "README.md").write_text(
        "see [the guide](docs/missing.md) for details\n")
    bad = check_docs_links.dangling(tmp_path)
    assert [(p.name, line, target) for p, line, target in bad] == [
        ("README.md", 1, "docs/missing.md")]


def test_detects_dangling_code_reference(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "notes.md").write_text(
        "the logic lives in `src/nowhere/ghost.py` now\n")
    bad = check_docs_links.dangling(tmp_path)
    assert len(bad) == 1
    assert bad[0][2] == "src/nowhere/ghost.py"


def test_accepts_valid_references(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "docs" / "guide.md").write_text("# guide\n")
    (tmp_path / "README.md").write_text(
        "read [the guide](docs/guide.md); code in `mod.py` and\n"
        "`src/mod.py`; externals like <https://example.com> and\n"
        "[site](https://example.com/x.md) are skipped, as are\n"
        "[anchors](#section) and knobs like `epoch_us`.\n")
    (tmp_path / "docs" / "other.md").write_text(
        "sibling [guide](guide.md) resolves relative to docs/\n")
    assert check_docs_links.dangling(tmp_path) == []


def test_main_reports_failures(tmp_path, capsys):
    (tmp_path / "README.md").write_text("[x](gone.md)\n")
    assert check_docs_links.main(["check_docs_links.py",
                                  str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "README.md:1" in out and "gone.md" in out


def test_untracked_file_does_not_satisfy_a_reference(tmp_path):
    """In a git checkout only tracked files count: build output or a
    stray local file must not hide a reference a clean checkout fails."""
    import subprocess

    (tmp_path / "README.md").write_text(
        "see `docs/tracked.md` and `summary.json`\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "tracked.md").write_text("# tracked\n")
    (tmp_path / "summary.json").write_text("{}\n")  # untracked stray
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run(["git", "-C", str(tmp_path), "add", "README.md",
                    "docs/tracked.md"], check=True)
    bad = check_docs_links.dangling(tmp_path)
    assert [(p.name, line, target) for p, line, target in bad] == [
        ("README.md", 1, "summary.json")]
