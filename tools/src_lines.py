"""Line census of ``src/smoothcert``: total, code, docstring, comment, blank.

Usage, from the root of the repository:

    python3 tools/src_lines.py

A docstring line is any line of a module, class or function docstring; a
comment line starts with ``#``; a blank line holds only whitespace; code is
the rest.  One row per module, then the total.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "smoothcert")
KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of every line of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def census(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts["total"] += 1
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        counts = census(os.path.join(SRC, name))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[kind]:>11,}" for kind in KINDS))


if __name__ == "__main__":
    main()
