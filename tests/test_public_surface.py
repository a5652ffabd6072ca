"""Nothing public that only tests reach: every public top-level function and
class in src/volsampler, and every public method of such a class, is named
by the program itself (src/ outside its own definition and outside
__init__.py), by the benchmark (perfbench/) or by a script (scripts/)."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volsampler"

# public names that only tests call, each kept for a reason of its own
TEST_ONLY = {
    "read_ppm": "the PPM reader the tests check write_ppm's files with",
    "foreground_psnr": "criterion C7's measure",
    "decision_loss": "criterion C9's measure",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    outside = "\n".join(path.read_text(encoding="utf-8")
                        for folder in ("perfbench", "scripts")
                        for path in sorted((ROOT / folder).glob("*.py"))
                        if not path.name.startswith("test_"))
    uncalled = set()
    for path, lines in sources.items():
        for node in _public_definitions(ast.parse("\n".join(lines))):
            named = re.compile(rf"\b{node.name}\b")
            elsewhere = [outside] + [
                "\n".join(line for i, line in enumerate(text, 1)
                          if other != path or not node.lineno <= i <= node.end_lineno)
                for other, text in sources.items()]
            if not any(named.search(text) for text in elsewhere):
                uncalled.add(node.name)
    assert uncalled == set(TEST_ONLY)
