"""The package namespace and each submodule's ``__all__`` hold what the
package's users read, and no more."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import countmix

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "countmix"
ERRORS = {"DomainError", "FitError", "ParseError"}


def names_taken_from_countmix(source: str) -> set[str]:
    """Names a Python source takes from ``countmix``: ``from countmix import X``
    and ``countmix.X``, submodules excluded."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "countmix":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "countmix"
        ):
            names.add(node.attr)
    submodules = {info.name for info in pkgutil.iter_modules(countmix.__path__)}
    return names - submodules


def user_sources() -> list[str]:
    """Python the package's users run: the scripts, the benchmark and the
    README's code blocks."""
    sources = [p.read_text() for p in sorted(ROOT.glob("scripts/*.py"))]
    sources += [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    readme = (ROOT / "README.md").read_text()
    return sources + re.findall(r"```python\n(.*?)```", readme, re.S)


def test_all_is_what_scripts_benchmark_and_readme_import():
    used = set().union(*map(names_taken_from_countmix, user_sources()))
    assert "fit_npmle" in used and "gof_test" in used  # the sources were found
    assert sorted(countmix.__all__) == sorted(used | ERRORS)
    assert len(countmix.__all__) == len(set(countmix.__all__))


def test_every_public_name_resolves():
    for name in countmix.__all__:
        assert getattr(countmix, name).__module__.startswith("countmix.")


def names_read(tree: ast.AST) -> set[str]:
    """Names a syntax tree reads: loaded names and attributes, and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def bound_names(statement: ast.stmt) -> set[str]:
    """Names a module-level definition or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {n.id for t in statement.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_every_submodule_export_is_read_outside_the_tests():
    # Roots: the package's users and the CLI entry point.  A library
    # definition reads on behalf of others only once it is read itself.
    roots = [ast.parse(source) for source in user_sources()]
    roots.append(ast.parse((PACKAGE / "cli.py").read_text()))
    reads_of: dict[str, set[str]] = {}
    exports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"countmix.{path.stem}")
        exports[path.stem] = getattr(module, "__all__", ())
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            for name in bound_names(statement) - {"__all__"}:
                reads_of.setdefault(name, set()).update(names_read(statement))
    live = set().union(*map(names_read, roots))
    frontier = list(live)
    while frontier:
        for name in reads_of.get(frontier.pop(), ()):
            if name not in live:
                live.add(name)
                frontier.append(name)
    # certificate: the independent oracle the tests check every fit against
    unread = {
        f"{stem}.{name}"
        for stem, names in exports.items()
        for name in names
        if name not in live
    } - {"npmle.certificate"}
    assert not unread
