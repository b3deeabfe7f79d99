"""The README's library quick tour runs, and its comments give the values it shows.

The ```python block under "Library quick tour" is run one statement at a
time with ``ast``.  An expression statement with a trailing comment states
its value: the comment starts with the value's ``str()``, as in
``ctx.power_op(t)  # t^2 + t*z``.  The few statements whose comment only
describes the value are listed here by their source text.
"""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
DESCRIBED = {"boolean_relations(3, ctx)", "extract_relations(3, ctx)"}


def tour_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_tour_runs_and_its_values_match_their_comments():
    block = tour_block()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(block).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked, described = [], set()
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README tour", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README tour", "eval"), namespace)
        comment = comments.get(node.end_lineno)
        if comment is None:
            continue
        if source in DESCRIBED:
            described.add(source)
            continue
        assert comment.startswith(str(value)), (source, str(value), comment)
        checked.append(source)
    assert described == DESCRIBED
    assert {
        "ctx.power_op(t)",
        "delta(ChernSeries([1, 0, 0]), ctx)",
        "report.relations[0]",
    } <= set(checked)
