"""Module boundaries of the package: no module reads another's private names.

A name with one leading underscore is private to the module that defines it.
Another module of the package may neither import one (`from .m import _x`,
`from fhc_ac.m import _x`) nor read one as an attribute of an imported module
(`m._x`). Dunder names such as `__version__` are public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fhc_ac"


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module `node` imports from, or None for an outside one;
    "" for the package itself (`from . import m`, `from fhc_ac import m`)."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module:
        head, _, rest = node.module.partition(".")
        if head == "fhc_ac":
            return rest
    return None


def private_reads(path: Path, modules: set) -> list:
    """`file:line name` of every read of another package module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = package_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif private(alias.name):
                    found.append((alias.lineno, f"{source or 'fhc_ac'}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "fhc_ac" and rest in modules and alias.asname:
                    aliases[alias.asname] = rest
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and private(node.attr)
        ):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_no_module_reads_another_modules_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    modules = {f.stem for f in files}
    reads = [read for f in files for read in private_reads(f, modules)]
    assert not reads, "private names read across modules:\n" + "\n".join(reads)
