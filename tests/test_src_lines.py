import importlib.util
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring.

Its second paragraph.
"""
import os  # a comment after code is code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    "-".join([text])
    return x
'''


def test_each_line_is_code_docstring_or_comment_or_blank():
    # code: lines 5, 10, 12, 13, 14 and 15; docstring and comment: lines 1,
    # 3, 4, 7 and 11; blank: 6, 8 and 9, and the docstring's empty line 2
    assert src_lines.count(FIXTURE) == {"lines": 15, "code": 6, "doc": 5, "blank": 4}
    assert src_lines.count("") == {"lines": 0, "code": 0, "doc": 0, "blank": 0}


def test_table_lists_each_module_the_total_and_the_net_change():
    old = {"src/a.py": FIXTURE, "src/gone.py": "x = 1\n"}
    new = {"src/a.py": FIXTURE + "\n# more\ny = 2\n", "src/new.py": '"""Doc."""\n'}
    rows = [row.split() for row in src_lines.table(old, new, "REV")]
    assert rows[0] == ["REV", "work", "tree", "net"]
    assert rows[1] == ["module"] + ["lines", "code", "doc", "blank"] * 3
    assert rows[2:] == [
        ["src/a.py", "15", "6", "5", "4", "18", "7", "6", "5", "+3", "+1", "+1", "+1"],
        ["src/gone.py", "1", "1", "0", "0", "0", "0", "0", "0", "-1", "-1", "+0", "+0"],
        ["src/new.py", "0", "0", "0", "0", "1", "0", "1", "0", "+1", "+0", "+1", "+0"],
        ["total", "16", "7", "5", "4", "19", "7", "7", "5", "+3", "+0", "+2", "+1"],
    ]


def test_main_reads_the_revision_without_a_checkout(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text(FIXTURE)
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path / "src")
    assert src_lines.main(["HEAD"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert rows[-1] == ["total", "15", "6", "5", "4", "1", "1", "0", "0",
                        "-14", "-5", "-5", "-4"]
    # the work tree is as it was
    assert (tmp_path / "src" / "a.py").read_text() == "x = 1\n"
