"""The library keeps what its commands reach: every function, method and
class defined in src/newtrack has a reader in the library or the
benchmark, not only in the tests or the package's exports.  And every
source file parses under the oldest Python the package supports."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "newtrack").glob("*.py")
                 if p.name != "__init__.py")
READERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))

# module.name -> why that definition may stay without a reader.
ALLOWED = {}


def references(tree) -> list[str]:
    """The name each ast.Name, ast.Attribute and string constant in tree
    spells: a string covers a callable looked up or wrapped by its name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return names


def unreached(library, readers) -> list[str]:
    """module.name of each def and class in library (methods too, dunders
    not) whose name no file of readers references outside its own body."""
    trees = {path: ast.parse(path.read_text()) for path in {*library, *readers}}
    counts = Counter(name for path in readers for name in references(trees[path]))
    missing = []
    for path in library:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if counts[name] == references(node).count(name):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_library_definition_has_a_reader():
    missing = [name for name in unreached(LIBRARY, READERS) if name not in ALLOWED]
    assert missing == [], "defined in src/newtrack, read only by tests or exports"


def test_unreached_flags_a_definition_only_its_own_body_reads(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n\n"
        "    def size(self):\n"
        "        return self.size\n\n"
        "def used():\n"
        "    return Box()\n\n"
        "def recurse(k):\n"
        "    return recurse(k - 1)\n\n"
        "def unused():\n"
        "    return used()\n\n"
        "def wrapped():\n"
        "    return 1\n")
    reader = tmp_path / "reader.py"
    reader.write_text("TARGETS = [('mod', 'wrapped')]\n")
    assert sorted(unreached([module], [module, reader])) == \
        ["mod.recurse", "mod.size", "mod.unused"]



# requires-python in pyproject.toml; no CI run has been seen on 3.10, so
# its grammar is checked here on whatever Python runs the tests.
OLDEST = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def grammar_errors(paths, version=OLDEST) -> list[str]:
    """path:line: message for each file that does not parse under version's
    grammar."""
    errors = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as err:
            errors.append(f"{path}:{err.lineno}: {err.msg}")
    return errors


def test_every_source_file_parses_as_the_oldest_supported_python():
    assert len(SOURCES) >= 24
    assert grammar_errors(SOURCES) == []


def test_grammar_errors_flags_newer_syntax(tmp_path):
    # except* is 3.11 grammar; match is 3.10's own.
    newer = tmp_path / "newer.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    older = tmp_path / "older.py"
    older.write_text("match 1:\n    case _:\n        pass\n")
    found = grammar_errors([newer, older])
    assert len(found) == 1 and found[0].startswith(f"{newer}:")
    assert "3.11" in found[0]
