"""The package keeps zero runtime dependencies: it imports only the standard
library; and the README's library example runs and prints what it says."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lsquare"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign


def readme_library_block():
    """The first python code block under the README's `## Library` heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def literal_comments(source):
    """{line: value} for each comment that `ast.literal_eval` parses."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                out[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (SyntaxError, ValueError):
                pass
    return out


def test_readme_library_example_runs_and_matches_its_comments():
    source = readme_library_block()
    expected = literal_comments(source)
    assert len(expected) >= 3
    namespace = {}
    checked = set()
    for node in ast.parse(source).body:
        if node.end_lineno in expected:
            # a line that ends in a literal comment is an expression of that value
            assert isinstance(node, ast.Expr), ast.unparse(node)
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            want = expected[node.end_lineno]
            assert type(value) is type(want) and value == want, ast.unparse(node)
            checked.add(node.end_lineno)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == set(expected)
