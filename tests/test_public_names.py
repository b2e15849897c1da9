"""Every public function and method defined in ``src/hgnum`` has a reader: code
in ``src/hgnum`` (outside the name's own definition) or in ``bench/*.py`` that
reads it by name, or an entry in ``hgnum.__all__``.  A name that only the
tests read belongs in the tests.

The check is by name, on the syntax trees alone, so it needs only the
standard library.  A function counts as read where its name is loaded, bare
or as an attribute (``closed_forms.value``); a method only where it is loaded
as an attribute, or, for a dunder method that a public class defines, where
the syntax calls it: a subscript reads ``__getitem__`` and an operator its
own dunder (``a * b`` reads ``__mul__`` and ``__rmul__``).  A hook that
Python calls with no syntax of its own is named in ``IMPLICIT``.  An import is
not a read.  Functions nested in other functions, and the methods of private
classes, are not public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgnum"

# qualified name -> why it stays with no reader in the package or the benchmark
UNREAD = {}
# dunder method -> who calls it, with no syntax that reads it
IMPLICIT = {
    "__new__": "calling the class calls it",
    "__init__": "calling the class calls it",
    "__hash__": "hash() calls it, and so does a set or a dict key",
    "__repr__": "repr() calls it, and so does a failed assertion",
}
# operator node -> the stem of its dunders
OPERATORS = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
    ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.LShift: "lshift", ast.RShift: "rshift", ast.BitAnd: "and", ast.BitOr: "or",
    ast.BitXor: "xor",
    ast.USub: "neg", ast.UAdd: "pos", ast.Invert: "invert",
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "lt", ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge",
    ast.In: "contains", ast.NotIn: "contains",
}
SUBSCRIPT = {ast.Load: "__getitem__", ast.Store: "__setitem__", ast.Del: "__delitem__"}


def _public(name):
    return not name.startswith("_")


def _dunder(name):
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


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
                    if isinstance(item, ast.FunctionDef) and (
                        _public(item.name) or _dunder(item.name)
                    ):
                        qualname = f"{node.name}.{item.name}"
                        out.append((qualname, item.name, True, path, item.lineno))
    return out


def _loads(node):
    """(name, is an attribute) for each load of a name under ``node``, and
    (dunder, True) for each dunder that a subscript or an operator calls."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr, True
        elif isinstance(sub, ast.Subscript):
            yield SUBSCRIPT[type(sub.ctx)], True
        elif isinstance(sub, (ast.BinOp, ast.AugAssign)):
            stem = OPERATORS[type(sub.op)]
            yield from ((f"__{p}{stem}__", True) for p in ("", "r"))
            if isinstance(sub, ast.AugAssign):
                yield f"__i{stem}__", True
        elif isinstance(sub, ast.UnaryOp) and type(sub.op) in OPERATORS:
            yield f"__{OPERATORS[type(sub.op)]}__", True
        elif isinstance(sub, ast.Compare):
            for op in sub.ops:
                if type(op) in OPERATORS:
                    yield f"__{OPERATORS[type(op)]}__", True


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
        if (not method and name in names) or (method and name in IMPLICIT):
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


def test_subscripts_and_operators_read_their_dunders():
    tree = ast.parse("x[0]; y[1] = 2; -a; a * b; a -= b; a < b; a in b")
    got = {name for name, attr in _loads(tree) if attr}
    assert got == {
        "__getitem__", "__setitem__", "__neg__", "__mul__", "__rmul__", "__sub__", "__rsub__",
        "__isub__", "__lt__", "__contains__",
    }


def test_the_dunders_of_public_classes_are_checked():
    methods = {qualname: name for qualname, name, method, *_ in definitions() if method}
    assert "NumberTable.__getitem__" in methods
    # each implicit hook listed is one that a public class defines
    assert set(IMPLICIT) <= set(methods.values())
