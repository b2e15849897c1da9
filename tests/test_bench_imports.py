"""The names the benchmark scripts read from hgnum still exist, and the
determinant route that bench/make_reference.py checks its reference against
is the registry's ``det`` route.

The scripts are parsed, not imported: importing them would put bench/ on the
path and pull in sympy."""

import ast
import importlib
from pathlib import Path

import pytest

from hgnum import closed_forms
from hgnum.families import SPECS, FamilyKind

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def hgnum_names(tree):
    """Every dotted hgnum name the module reads statically: the names its
    ``from hgnum... import`` lines bind, and the attributes it reads off an
    imported hgnum module, such as ``closed_forms.hg_euler_det``."""
    modules = {}  # local name -> dotted hgnum module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hgnum":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "hgnum"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hgnum":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                modules[alias.asname or alias.name] = dotted
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id], *reversed(chain)]))
    return names


def resolve(dotted):
    """The object a dotted hgnum name refers to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def test_make_reference_is_scanned():
    tree = ast.parse((BENCH / "make_reference.py").read_text())
    assert "hgnum.closed_forms.hg_euler_det" in hgnum_names(tree)
    assert "hgnum.families.via_series" in hgnum_names(tree)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_bench_names_exist(script):
    for dotted in sorted(hgnum_names(ast.parse(script.read_text()))):
        resolve(dotted)


def det_route_names():
    """bench/make_reference.py's DET_ROUTE, as family -> closed_forms name."""
    tree = ast.parse((BENCH / "make_reference.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["DET_ROUTE"]:
            return {k.value: v.attr for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("make_reference.py has no DET_ROUTE")


def test_det_route_is_the_registry_det():
    routes = det_route_names()
    assert set(routes) == {kind.value for kind in FamilyKind}
    for family, name in routes.items():
        kind = FamilyKind(family)
        view = getattr(closed_forms, name)
        stride = SPECS[kind].stride
        for N in range(SPECS[kind].least_N, 4):
            for n in range(stride, 13, stride):
                assert view(N, n) == closed_forms.value(kind, "det", N, n), (family, N, n)
