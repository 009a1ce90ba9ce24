"""The package namespace holds what its users import from it, and no more."""

import ast
import pkgutil
import re
from pathlib import Path

import countmix

ROOT = Path(__file__).resolve().parent.parent
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


def test_all_is_what_scripts_benchmark_and_readme_import():
    sources = [p.read_text() for p in sorted(ROOT.glob("scripts/*.py"))]
    sources += [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    used = set().union(*map(names_taken_from_countmix, sources))
    assert "fit_npmle" in used and "gof_test" in used  # the sources were found
    assert sorted(countmix.__all__) == sorted(used | ERRORS)
    assert len(countmix.__all__) == len(set(countmix.__all__))


def test_every_public_name_resolves():
    for name in countmix.__all__:
        assert getattr(countmix, name).__module__.startswith("countmix.")
