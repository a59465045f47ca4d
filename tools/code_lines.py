"""Count the code lines of the package: the non-blank lines under
``src/nomset`` that are neither comments nor docstrings, per module and in
total.  Then count the methods that importing the package generates:
the functions in the class dicts of the modules it loads whose code was
compiled from a string, as ``dataclass`` compiles the methods it writes.
Standard library only.

Usage: ``python tools/code_lines.py [DIR]`` (default: ``src/nomset`` next
to this script's parent directory).  The package is imported from DIR.
"""

import ast
import importlib
import inspect
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token that is neither a comment nor part of a docstring."""
    skip = docstring_lines(ast.parse(source))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def generated_methods(root: Path) -> int:
    """The methods compiled from a string in the classes of the package at
    ``root`` and of the modules its import loads.  ``inspect.unwrap``
    reaches a generated method under a wrapper, such as the recursion
    guard ``dataclass`` puts around ``__repr__``."""
    sys.path.insert(0, str(root.parent))
    importlib.import_module(root.name)
    classes = {cls for name, module in list(sys.modules.items())
               if name == root.name or name.startswith(f"{root.name}.")
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == name}
    codes = [getattr(inspect.unwrap(f), "__code__", None)
             for cls in classes for f in vars(cls).values()]
    return sum(code is not None and code.co_filename == "<string>" for code in codes)


def main(argv: list[str]) -> None:
    default = Path(__file__).resolve().parent.parent / "src" / "nomset"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    print(f"{generated_methods(root):6d}  methods generated at import")


if __name__ == "__main__":
    main(sys.argv)
