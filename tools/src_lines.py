"""Count the ``src/`` Python lines of the work tree against a git revision.

Run from anywhere inside the repository:

    python3 tools/src_lines.py REV

For every ``.py`` file under ``src/`` in the work tree and in revision
``REV`` (read with ``git show``, so nothing is checked out), the script
prints its lines split into code, docstring-and-comment and blank lines,
then the totals and the net change from ``REV`` to the work tree.  A line
is code when it holds a token other than a comment or a docstring (a string
that is a statement of its own); blank when it is empty and not code, an
empty line of a docstring included; and docstring-and-comment otherwise.
"""

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

KINDS = ("lines", "code", "doc", "blank")
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def count(source: str) -> dict:
    """Lines of Python ``source``: ``lines`` in all, and ``code``, ``doc``
    (docstring-and-comment) and ``blank`` lines, which sum to it."""
    lines = source.splitlines()
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.NL, tokenize.COMMENT)]
    code = set()
    for prev, tok, nxt in zip([None] + toks, toks, toks[1:] + [None]):
        if tok.type in _LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING and (prev is None or prev.type in _LAYOUT)
                     and nxt.type in _LAYOUT)
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    n_code = sum(1 for i in range(1, len(lines) + 1) if i in code)
    blank = sum(1 for i, line in enumerate(lines, 1) if i not in code and not line.strip())
    return {"lines": len(lines), "code": n_code, "doc": len(lines) - n_code - blank,
            "blank": blank}


def git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout


def revision_sources(root: Path, rev: str) -> dict:
    """``{path: source}`` of every ``src/`` Python file in ``rev``."""
    names = git("ls-tree", "-r", "--name-only", rev, "--", "src", cwd=root).split()
    return {name: git("show", f"{rev}:{name}", cwd=root) for name in names if name.endswith(".py")}


def tree_sources(root: Path) -> dict:
    """``{path: source}`` of every ``src/`` Python file in the work tree."""
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted((root / "src").rglob("*.py"))}


def table(old: dict, new: dict, old_name: str) -> list:
    """The printed rows: per module and in total, ``old_name``'s counts, the
    work tree's and the net change."""
    sides = [{path: count(src) for path, src in sources.items()} for sources in (old, new)]
    for side in sides:
        side["total"] = {k: sum(c[k] for c in side.values()) for k in KINDS}
    zero = dict.fromkeys(KINDS, 0)
    width = max(map(len, {*old, *new, "total"}))
    head = " ".join(f"{k:>6}" for k in KINDS)
    rows = [f"{'':<{width}}  {old_name:^27}  {'work tree':^27}  {'net':^27}",
            f"{'module':<{width}}  {head}  {head}  {head}"]
    for path in sorted({*old, *new}) + ["total"]:
        a, b = (side.get(path, zero) for side in sides)
        rows.append(f"{path:<{width}}  " + "  ".join(
            " ".join(f"{c[k]:{sign}6,}" for k in KINDS)
            for c, sign in ((a, ">"), (b, ">"), ({k: b[k] - a[k] for k in KINDS}, "+"))))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the git revision to compare the work tree with")
    args = p.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel").strip())
    print("\n".join(table(revision_sources(root, args.rev), tree_sources(root), args.rev)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
