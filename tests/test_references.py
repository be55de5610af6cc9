"""Every backticked dotted name in README.md and in the docstrings of the
package that refers to the package names something that exists.

A reference is `module.name`, its first part a module of the package or
the package itself, or `Class.attr`, its first part a class defined in
one of its modules; each later part is looked up as an attribute, so a
renamed or deleted function, method or field leaves a reference that
fails here.  Dotted names outside the package, such as
`fractions.Fraction`, `json.dumps` or `pyproject.toml`, are skipped.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import mahlersolve

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(mahlersolve.__file__).parent
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")

MODULES = {
    info.name: importlib.import_module(f"mahlersolve.{info.name}")
    for info in pkgutil.iter_modules(mahlersolve.__path__)
}
OWNERS = {"mahlersolve": mahlersolve, **MODULES}
OWNERS.update(
    (name, obj)
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__ == module.__name__
)


def package_references(text: str) -> list[str]:
    """The backticked dotted names in text whose first part is a module
    or class of the package."""
    return [ref for ref in REFERENCE.findall(text) if ref.split(".")[0] in OWNERS]


def resolves(ref: str) -> bool:
    first, *rest = ref.split(".")
    obj = OWNERS[first]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def docstrings(path: pathlib.Path) -> list[str]:
    """The docstrings of the module and of its classes and functions."""
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, nodes):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                found.append(doc)
    return found


def test_readme_references_resolve():
    refs = package_references((ROOT / "README.md").read_text())
    assert len(refs) >= 20
    assert [ref for ref in refs if not resolves(ref)] == []


def test_docstring_references_resolve():
    refs = [
        (path.name, ref)
        for path in sorted(PACKAGE.glob("*.py"))
        for doc in docstrings(path)
        for ref in package_references(doc)
    ]
    assert len(refs) >= 5
    assert [(name, ref) for name, ref in refs if not resolves(ref)] == []


def test_stale_references_are_flagged():
    text = (
        "`Recurrence.prolong`, `rational._consistent_extension`, `Poly.coeffs`, "
        "`mahlersolve.rmatrix.prolong`, `rmatrix.extend_prefix`, `Poly.den`, "
        "`json.dumps`, `args.solve`, `pyproject.toml`"
    )
    refs = package_references(text)
    assert [ref for ref in refs if not resolves(ref)] == [
        "Recurrence.prolong",
        "rational._consistent_extension",
        "Poly.coeffs",
        "mahlersolve.rmatrix.prolong",
    ]
    assert [ref for ref in refs if resolves(ref)] == ["rmatrix.extend_prefix", "Poly.den"]
