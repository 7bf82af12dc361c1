"""The public surface stays reached: every public function or method has a caller outside tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csi_feedback"

# documented API that no module, demo or benchmark calls; each entry says where it is documented
ALLOWED = {
    "read_csv": "README: the reader of the CSV that the CLI writes",
}

# a dotted path such as "UniformQuantizer.quantize_many", not a docstring
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_definitions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Public module-level functions and the public methods of public classes."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [item for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            found.append(node)
    return [node for node in found if not node.name.startswith("_")]


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each identifier, attribute and part of a dotted string constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def unreached(package: Path, others: list[Path], text: str) -> set[str]:
    """Public names defined under ``package`` that nothing reaches.

    A name is reached by a reference in another module of the package (its
    ``__init__.py``, which re-exports, does not count), by one in its own
    module outside its own definition, by one in ``others``, or by a word of
    ``text``.
    """
    sources = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    sources.pop(package / "__init__.py", None)
    outside = {name for path in others for name, _ in references(ast.parse(path.read_text()))}
    outside |= set(re.findall(r"\w+", text))
    names = {path: references(tree) for path, tree in sources.items()}
    missing = set()
    for path, tree in sources.items():
        for node in public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            reached = node.name in outside or any(
                name == node.name and (other != path or line not in own)
                for other, found in names.items()
                for name, line in found
            )
            if not reached:
                missing.add(node.name)
    return missing


def test_reach_check_reads_code_not_text(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import unused, recursive\n")
    (package / "mod.py").write_text(
        '"""A docstring that names unused, recursive and Thing.hook."""\n'
        "def unused():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def called():\n"
        "    return 1\n"
        "def traced():\n"
        "    pass\n"
        "def scripted():\n"
        "    pass\n"
        "class Thing:\n"
        "    def hook(self):\n"
        "        return called()\n"
        "    def _private(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def method(self):\n"
        "        pass\n"
    )
    bench = tmp_path / "spans.py"
    bench.write_text('TARGETS = [("mod", "Thing.hook"), ("mod", "traced")]\n')
    missing = unreached(package, [bench], '[scripts]\nrun = "pkg.mod:scripted"\n')
    assert missing == {"unused", "recursive"}


def test_every_public_function_is_reached_or_allowed():
    # the tests under bench/ are tests, so they reach nothing
    others = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    others = [path for path in others if "tests" not in path.relative_to(ROOT).parts]
    missing = unreached(PACKAGE, others, (ROOT / "pyproject.toml").read_text())
    assert missing - set(ALLOWED) == set(), "public, but only tests reach it: delete or use it"
    assert set(ALLOWED) - missing == set(), "reached now: drop it from ALLOWED"
