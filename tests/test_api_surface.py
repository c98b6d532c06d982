"""The library holds no public name that only the tests use.

An ``ast`` walk over ``src/sparseparity/*.py`` collects every public
module function, method, classmethod, staticmethod and property, and
every use of a name in ``src/`` and ``perfbench/``: bare names, imports,
attributes, and string constants that spell a name or a dotted name
(perfbench wraps its targets by such strings).  A module function is
used by any of these; a method or property only by an attribute or a
dotted string, since a bare name never reaches it.  Each definition must be used
somewhere outside its own body, be exported in ``sparseparity.__all__``,
or sit in :data:`ALLOWED` with its reason.  The same walk holds the
test oracles (``tests/*_reference.py`` and ``tests/replay_source.py``)
to a caller among ``tests/*.py``.

It is a tripwire, not a proof: uses are matched by name alone, so a
method named like another attribute in use (``BitVector.words`` and
``SplitMix64.words``, or a builtin method such as ``str.split``) passes.
"""

import ast
import re
from pathlib import Path

import sparseparity

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "sparseparity"
CALLERS = (LIBRARY, ROOT / "perfbench")

# Public names kept with no caller in src/ or perfbench/, and why.
ALLOWED = {
    "run": "an inner learner's answer for one stream, the lone vector of "
    "candidates(examples, 0) or None: perfbench/tracing.py wraps inner.run "
    "by name, while the flip-set driver calls candidates",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree):
    """``(name, is_method, first line, last line)`` of each public
    function, method and property of a module."""
    found = []
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for member in node.body if is_class else [node]:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not member.name.startswith("_"):
                    found.append(
                        (member.name, is_class, member.lineno, member.end_lineno)
                    )
    return found


def uses(tree):
    """``(name, by_attribute, line)`` of every use of a name in a module.

    A dotted string such as ``"LearnerState.fork"`` counts as attribute
    uses; a string that is one identifier counts as a bare name, so a
    unit such as ``"bits"`` does not reach a method.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, False, node.lineno))
        elif isinstance(node, ast.alias):
            found.extend((p, False, node.lineno) for p in node.name.split("."))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)
        ):
            parts = node.value.split(".")
            dotted = len(parts) > 1
            found.extend((p, dotted, node.lineno) for p in parts)
    return found


def unused_public_names(library, callers, exported=(), allowed=()):
    """``module.name`` of each public definition in ``library`` (module
    name to tree) that no module of ``callers`` uses outside its body."""
    seen = [
        (module, name, by_attribute, line)
        for module, tree in callers.items()
        for name, by_attribute, line in uses(tree)
    ]
    unused = []
    for module, tree in library.items():
        for name, is_method, first, last in definitions(tree):
            if name in exported or name in allowed:
                continue
            if not any(
                used == name
                and (by_attribute or not is_method)
                and not (where == module and first <= line <= last)
                for where, used, by_attribute, line in seen
            ):
                unused.append(f"{module.rpartition('/')[2]}.{name}")
    return unused


def parse_folder(folder):
    return {
        f"{folder.name}/{path.stem}": ast.parse(path.read_text(), str(path))
        for path in sorted(folder.glob("*.py"))
    }


def test_every_public_name_has_a_caller():
    library = parse_folder(LIBRARY)
    callers = {}
    for folder in CALLERS:
        callers.update(parse_folder(folder))
    assert unused_public_names(
        library, callers, sparseparity.__all__, ALLOWED
    ) == []


def test_every_test_oracle_has_a_caller():
    # An oracle whose last test retired goes with it.
    tests = ROOT / "tests"
    oracles = [*tests.glob("*_reference.py"), tests / "replay_source.py"]
    library = {
        f"tests/{path.stem}": ast.parse(path.read_text(), str(path))
        for path in sorted(oracles)
    }
    assert unused_public_names(library, parse_folder(tests)) == []


def test_every_allowlisted_name_is_defined():
    defined = {
        name
        for tree in parse_folder(LIBRARY).values()
        for name, _, _, _ in definitions(tree)
    }
    assert set(ALLOWED) <= defined


def walk(source):
    tree = ast.parse(source)
    return unused_public_names({"lib": tree}, {"lib": tree})


def test_a_method_used_only_inside_itself_is_reported():
    assert walk(
        "class A:\n"
        "    def lone(self):\n"
        "        return self.lone\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return self.used\n"
    ) == ["lib.lone"]


def test_a_bare_name_does_not_reach_a_method():
    assert walk(
        "class A:\n"
        "    def ones(self):\n"
        "        return 1\n"
        "def _f(ones):\n"
        "    return ones\n"
    ) == ["lib.ones"]


def test_a_bare_name_reaches_a_module_function():
    assert walk("def f():\n    return 1\nx = f()\n") == []


def test_a_dotted_string_reaches_a_method():
    assert walk(
        "class LearnerState:\n"
        "    def fork(self):\n"
        "        return 1\n"
        'TARGETS = (("online", "LearnerState.fork"), "fork me")\n'
    ) == []
    assert walk(
        "class A:\n"
        "    def fork(self):\n"
        "        return 1\n"
        "X = ('fork', 'fork me')\n"
    ) == ["lib.fork"]


def test_a_one_word_string_reaches_a_module_function():
    assert walk("def f():\n    return 1\nX = 'f'\n") == []
