"""The README's examples run and print what their comments say.

The ``python`` block under "## Library" is run statement by statement; each
expression statement's value must read as its ``# ...`` comment (up to a
``:`` that starts an explanation).  The ``count`` lines of the CLI block
are run through ``cli.main`` and must print their comment.
"""

import ast
import io
import shlex
import tokenize
from pathlib import Path

from chordforest.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, language):
    """The first fenced ``language`` block after the line ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _comments(source):
    """Comment text by line number, without the leading ``#`` and spaces."""
    return {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }


def test_library_example_values():
    source = _block("## Library", "python")
    comments = _comments(source)
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
        comment = comments[statement.end_lineno]
        shown = repr(value)
        assert comment == shown or comment.startswith(shown + ":"), (comment, shown)
        checked.append(shown)
    assert checked == [
        "8281",
        "False",
        "{1: 12, 2: 28, 3: 28, 4: 14}",
        "(0, 1, 1, 3, 12, 55)",
    ]


def test_cli_count_examples(capsys):
    checked = []
    for line in _block("## CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:2] != ["chordforest", "count"]:
            continue
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert (code, out) == (EXIT_OK, comment.strip() + "\n"), line
        checked.append(out.strip())
    assert checked == ["6", "55", "9"]
