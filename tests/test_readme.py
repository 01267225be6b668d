"""The README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_block_values():
    # Every bare expression carries its value as a comment, at the end of
    # its line or alone on the next one.
    block = library_block()
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not comment and node.end_lineno < len(lines):
            comment = lines[node.end_lineno].strip()
        assert comment.startswith("# "), source
        assert repr(eval(source, namespace)) == comment[2:], source
        checked += 1
    assert checked == 4
