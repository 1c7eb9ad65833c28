"""Print the total lines and the code lines of each module under src/.

Code lines leave out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body). Each package's
``__init__.py`` also gets a line with the number of names in its
``__all__``, read from its syntax tree without importing it. Run from
the repository root:

    python tools/src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docs)
    return len(text.splitlines()), len(code)


def public_names(path: Path) -> int | None:
    """Length of the list or tuple assigned to ``__all__`` in a file, else None."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return len(node.value.elts)
    return None


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.relative_to(root)}\t{lines}\t{code_lines}")
    print(f"total\t{total}\t{code}")
    for path in sorted(root.rglob("__init__.py")):
        names = public_names(path)
        if names is not None:
            print(f"{path.relative_to(root)} __all__\t{names}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
