import importlib.util
from pathlib import Path

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
    modules = sorted(Path(loc.PACKAGE).glob("*.py"))
    assert [row[0] for row in rows] == [p.name for p in modules] + ["total"]
    wc = sum(p.read_text(encoding="utf-8").count("\n") for p in modules)
    assert int(rows[-1][1]) == wc == sum(int(row[1]) for row in rows[:-1])
    assert int(rows[-1][2]) == sum(int(row[2]) for row in rows[:-1]) < wc
