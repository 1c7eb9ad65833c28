"""Print the total lines, code lines and options of each module under src/.

Code lines leave out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body). Options are the
parameters with a default of public functions and methods, and the
fields with a default of public dataclasses; a name is public unless it
starts with an underscore. Each package's ``__init__.py`` also gets a
line with the number of names in its ``__all__``. Everything is read
from the syntax tree, without importing. Run from the repository root:

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
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS)) \
                and ast.get_docstring(node):
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def _defaults(function: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def options(path: Path) -> int:
    """Parameters with a default of the public functions and methods of
    one file, plus the fields with a default of its public dataclasses."""
    total = 0
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (not isinstance(node, (*_FUNCTIONS, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, _FUNCTIONS):
            total += _defaults(node)
        else:
            total += sum(_defaults(item) for item in node.body
                         if isinstance(item, _FUNCTIONS)
                         and not item.name.startswith("_"))
            if _is_dataclass(node):
                total += sum(isinstance(item, ast.AnnAssign)
                             and item.value is not None for item in node.body)
    return total


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src")
    total = code = opts = 0
    print("file\tlines\tcode\toptions")
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path)
        file_opts = options(path)
        total += lines
        code += code_lines
        opts += file_opts
        print(f"{path.relative_to(root)}\t{lines}\t{code_lines}\t{file_opts}")
    print(f"total\t{total}\t{code}\t{opts}")
    for path in sorted(root.rglob("__init__.py")):
        names = public_names(path)
        if names is not None:
            print(f"{path.relative_to(root)} __all__\t{names}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
