"""The public surface of fpgroups: what it exports and what it keeps.

Every module-level function and class must have a caller in src/.  A name
counts as used when some src/ module, outside the name's own definition,
reads it by a bare name or imports it with `from ... import`; attribute
access does not count, so the method Word.reduce does not keep a free
function reduce alive.  Exempt are the names fpgroups exports and one test
oracle kept on purpose.

Every class member -- method, property, dataclass field, or `self.X` set in
__init__ -- must likewise be read in src/ as an attribute, outside its own
definition.  Dunders are exempt, and so are a few members the tests use as
oracles or certificates.  The check goes by name, not by type: members
that share a name with a member of another class (to_json, order, ambient,
identity, from_json, quotient) hide one another, so a dead one among them
passes as long as some other class's member of that name is read.
"""

import ast
from pathlib import Path

import fpgroups

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpgroups"

# epi_count_product_check is the route of acceptance criterion 10
ALLOWED = {"epi_count_product_check"}


def _uses(node: ast.AST, skip: str | None) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id != skip:
            names.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_definition_has_a_caller_in_src():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                defined[own] = path.name
            used |= _uses(node, own)
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used | set(fpgroups.__all__) | ALLOWED
    )
    assert not unused, f"defined in src/ but never used there: {unused}"


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_exports_are_the_readme_imports():
    imported = set()
    for node in ast.walk(ast.parse(_readme_library_block())):
        if isinstance(node, ast.ImportFrom) and node.module == "fpgroups":
            imported.update(alias.name for alias in node.names)
    assert set(fpgroups.__all__) == imported | {"__version__"}


def test_readme_library_example_runs():
    exec(compile(_readme_library_block(), "README.md", "exec"), {})


MEMBERS_ALLOWED = {
    # the Dehn certificate that the tests replay step by step
    "DehnStep.rotation",
    "DehnStep.matched",
    # the result of epi_count_product_check, the route of criterion 10
    "EpiProductReport.e1",
    "EpiProductReport.e2",
    "EpiProductReport.holds",
    # the position of a parse error, which the parser tests compare; src/
    # reads it only through the message
    "ParseError.line",
    "ParseError.col",
}


def _members(cls: ast.ClassDef):
    """(name, defining node) for the methods, properties, dataclass fields
    and `self.X` attributes set in __init__ of one class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
            if node.name == "__init__":
                for sub in ast.walk(node):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target] if isinstance(sub, ast.AnnAssign) else []
                    )
                    for t in targets:
                        if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            yield t.attr, sub
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_class_member_is_read_in_src():
    reads: dict[str, list[ast.Attribute]] = {}
    members = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.ClassDef):
                members += [(node.name, name, d) for name, d in _members(node)]
    unread = set()
    for cls, name, definition in members:
        if name.startswith("__") and name.endswith("__"):
            continue
        inside = {id(n) for n in ast.walk(definition)}
        if not any(id(n) not in inside for n in reads.get(name, ())):
            unread.add(f"{cls}.{name}")
    unread -= MEMBERS_ALLOWED
    assert not unread, f"class members never read in src/: {sorted(unread)}"
