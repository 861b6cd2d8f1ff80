"""Source line counts of the Python modules in each directory given.

Usage, from the root of a source checkout:

    python3 tools/linecount.py src/fmmcodec tests

For each module, then for its directory, it prints the lines; the code lines,
those that hold a token other than a comment, with docstrings aside; the lines
of module, class and function docstrings; and the lines that hold a comment.
"""

import ast
import glob
import io
import sys
import tokenize

BLANK = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
KINDS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> list[int]:
    """Lines, code lines, docstring lines and comment lines of a module's text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, KINDS) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in BLANK:
            code.update(range(token.start[0], token.end[0] + 1))
    return [text.count("\n"), len(code - docs), len(docs), len(comments)]


def line(name: str, numbers: list[int]) -> str:
    lines, code, docs, comments = numbers
    return (
        f"{name}: {lines} lines, {code} code lines, {docs} docstring lines, "
        f"{comments} comment lines"
    )


def main(trees: list[str]) -> None:
    for tree in trees:
        totals = [0, 0, 0, 0]
        for path in sorted(glob.glob(f"{tree}/*.py")):
            with open(path, encoding="utf-8") as module:
                numbers = counts(module.read())
            totals = [a + b for a, b in zip(totals, numbers)]
            print(line(path, numbers))
        print(line(tree, totals))


if __name__ == "__main__":
    main(sys.argv[1:])
