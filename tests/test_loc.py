import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class Thing:
    """Class docstring."""

    size = 2

    def method(self):
        """Method
        docstring."""
        text = """a string that is
        not a docstring"""
        return text


def one_liner(): """A docstring beside code."""
'''


def test_count_leaves_out_blank_comment_and_docstring_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    # code: the import, the class, size, the def, both lines of text, the
    # return and the one-liner
    assert loc.count(path.read_text(encoding="utf-8")) == (22, 8)


def test_main_prints_every_module_and_the_totals(capsys):
    loc.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    modules = sorted((Path(loc.ROOT) / loc.PACKAGE_DIR).glob("*.py"))
    assert [row[0] for row in rows] == [p.name for p in modules] + ["total"]
    wc = sum(p.read_text(encoding="utf-8").count("\n") for p in modules)
    assert int(rows[-1][1]) == wc == sum(int(row[1]) for row in rows[:-1])
    assert int(rows[-1][2]) == sum(int(row[2]) for row in rows[:-1]) < wc


def git(root, *args):
    subprocess.run(["git", "-C", root, *args], check=True, capture_output=True)


def test_ref_prints_the_revisions_counts_beside_the_working_tree(tmp_path,
                                                                  capsys):
    package = tmp_path / "src" / "deepmp"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("x = 1\n\n", encoding="utf-8")
    (package / "gone.py").write_text('"""Doc."""\ny = 2\n', encoding="utf-8")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t",
        "-c", "commit.gpgsign=false", "commit", "-qm",
        "first")
    (package / "gone.py").unlink()
    (package / "kept.py").write_text("x = 1\ny = 2\nz = 3\n", encoding="utf-8")
    (package / "new.py").write_text("# note\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")

    loc.main(["--ref", "HEAD"], root=str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["HEAD", "working", "tree"]
    assert [line.split() for line in lines[2:]] == [
        ["gone.py", "2", "1", "-", "-"],
        ["kept.py", "2", "1", "3", "3"],
        ["new.py", "-", "-", "1", "0"],
        ["total", "4", "2", "4", "3"],
    ]


def test_ref_that_git_cannot_resolve_exits_with_its_message(tmp_path):
    (tmp_path / "src" / "deepmp").mkdir(parents=True)
    git(tmp_path, "init", "-q")
    with pytest.raises(SystemExit, match="loc.py: fatal"):
        loc.main(["--ref", "no-such-rev"], root=str(tmp_path))
