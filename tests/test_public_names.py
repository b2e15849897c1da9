"""Every public function and method defined in ``src/hgnum`` has a reader: code
in ``src/hgnum`` (outside the name's own definition) or in ``bench/*.py`` that
reads it by name, or an entry in ``hgnum.__all__``.  A name that only the
tests read belongs in the tests.

The check is by name, on the syntax trees alone, so it needs only the
standard library.  A function counts as read where its name is loaded, bare
or as an attribute (``closed_forms.value``); a method only where it is loaded
as an attribute.  An import is not a read.  Functions nested in other
functions, and the methods of private classes, are not public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgnum"

# qualified name -> why it stays with no reader in the package or the benchmark
UNREAD = {
    "TruncatedSeries.hasse_teichmuller": (
        "the paper's Hasse-Teichmuller (divided-power) derivative, whose product "
        "and quotient rules acceptance criterion 8 checks"
    ),
}


def _public(name):
    return not name.startswith("_")


def definitions():
    """(qualified name, name, is a method, path, line) of each public
    function and method of the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                out.append((node.name, node.name, False, path, node.lineno))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        qualname = f"{node.name}.{item.name}"
                        out.append((qualname, item.name, True, path, item.lineno))
    return out


def _loads(node):
    """(name, is an attribute) for each load of a name under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr, True


def reads():
    """(name, is an attribute, path, the top-level definition it sits in) for
    each load of a name in the package and in bench/*.py."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                owned = [(item, f"{node.name}.{getattr(item, 'name', '')}") for item in node.body]
            else:
                owned = [(node, getattr(node, "name", None))]
            for item, owner in owned:
                out.extend((name, attr, path, owner) for name, attr in _loads(item))
    return out


def exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unread():
    """The qualified names with no reader, each with where it is defined."""
    loads, names = {}, exported()
    for name, attr, path, owner in reads():
        loads.setdefault(name, []).append((attr, path, owner))
    out = {}
    for qualname, name, method, path, line in definitions():
        if not method and name in names:
            continue
        if not any(
            (attr or not method) and (p, owner) != (path, qualname)
            for attr, p, owner in loads.get(name, ())
        ):
            out[qualname] = f"{path.relative_to(ROOT)}:{line}"
    return out


def test_every_public_function_has_a_reader():
    missing = {q: where for q, where in unread().items() if q not in UNREAD}
    assert not missing, "read only by the tests, if at all:\n" + "\n".join(
        f"{where} {q}" for q, where in sorted(missing.items())
    )


def test_the_listed_exceptions_are_defined_and_unread():
    defined = {qualname for qualname, *_ in definitions()}
    assert set(UNREAD) <= defined
    assert set(UNREAD) <= set(unread())
