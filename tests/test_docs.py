"""README examples run as written and print what their comments say."""

import ast
import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

from chaoskit.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def comments(code: str) -> dict[int, str]:
    """Line number -> the text of the comment on that line."""
    return {tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(code).readline)
            if tok.type == tokenize.COMMENT}


def matches(value, comment: str) -> bool:
    """A literal comment equals the value; 'Type(k=v, ..., k=v)' names the
    value's type and some of its fields ('...' stands for the rest)."""
    try:
        return value == ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        pass
    head, _, fields = comment.partition("(")
    pairs = re.findall(r"(\w+)=([^,)]+)", fields)
    return (head == type(value).__name__ and bool(pairs)
            and all(getattr(value, k) == ast.literal_eval(v) for k, v in pairs))


def test_library_snippet_gives_its_commented_results():
    code = code_block("Library", "python")
    notes = comments(code)
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"),
                     namespace)
        end = node.end_lineno
        note = notes.get(end)
        if note is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            note = notes[end + 1]      # the comment on the line below
        if note is not None:
            assert matches(value, note), (ast.unparse(node), value, note)
            checked.append(note)
    assert checked == [
        "FamilyVerdict(syndetic=True, thick=True, ... longest_block=127)",
        "(2, 4, 6, 8)", "6", "'pass'"]


def test_classify_set_example_prints_its_headline(tmp_path):
    lines = code_block("Command line", "sh").splitlines()
    at = next(i for i, ln in enumerate(lines)
              if ln.startswith("chaoskit classify-set"))
    argv = shlex.split(lines[at])[1:]
    argv[argv.index("--out") + 1] = str(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert lines[at + 1].startswith("# ")
    assert out.getvalue() == lines[at + 1][2:] + "\n"
