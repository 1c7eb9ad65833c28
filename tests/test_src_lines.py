"""tools/src_lines.py on a small module written to a temporary directory."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    from dataclasses import dataclass, field

    __all__ = ["Config", "run", "Plain"]


    @dataclass(frozen=True)
    class Config:
        """A public dataclass: its two defaults count."""

        name: str
        size: int = 3
        tags: list = field(default_factory=list)

        def scaled(self, factor=2.0):
            return self.size * factor


    class Plain:
        limit = 5   # a class attribute, not a dataclass field

        def __init__(self, a, b=1):
            self.a = a

        def _private(self, c=0):
            return c

        async def fetch(self, *, timeout=1.0, retries=None):
            # a comment line
            return timeout


    @dataclass
    class _Hidden:
        x: int = 0


    def run(path, mode="r", *args, verbose=False, **kwargs):
        return path


    def _helper(x=1):
        return x
''')


def write(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    return path


def test_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    total, code = src_lines.count(write(tmp_path))
    assert total == len(MODULE.splitlines()) == 45
    # 45 lines, less 2 of the module docstring, 1 of the class docstring,
    # 1 comment line and 17 blank lines
    assert code == 24


def test_public_names_reads_all(tmp_path):
    assert src_lines.public_names(write(tmp_path)) == 3
    plain = tmp_path / "plain.py"
    plain.write_text("x = 1\n", encoding="utf-8")
    assert src_lines.public_names(plain) is None


def test_options_count_public_defaults(tmp_path):
    # Config: size, tags and scaled's factor; Plain: fetch's timeout and
    # retries (dunder and private methods are not public); run: mode and
    # verbose. _Hidden and _helper are private.
    assert src_lines.options(write(tmp_path)) == 7


def test_main_prints_the_totals(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    write(package)
    (package / "__init__.py").write_text('__all__ = ("a", "b")\n',
                                          encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "file\tlines\tcode\toptions",
        "pkg/__init__.py\t1\t1\t0",
        "pkg/sample.py\t45\t24\t7",
        "total\t46\t25\t7",
        "pkg/__init__.py __all__\t2",
    ]
