"""Layout checks on the package source: no API in src/ that nothing in src/ uses.

Every function, class and method defined under ``src/multspec``, and every
name a module-level assignment binds there, must be named somewhere in
``src/`` besides its own ``def`` or ``class`` line or its own assignment.
Names are read as Python tokens, so a mention in a string or a comment
does not count.  Exempt are dunder names and methods that override a
method of a class from outside the package (argparse calls
``ArgumentParser.error``): the interpreter or that library calls them.

And one retry rule (``multspec.errors``): an ``except`` clause that can
catch a package error names only a draw-again class, except in the two
functions that turn errors into output.

And every draw-again loop is one of the rules in ``multspec.errors``: no
``except`` clause that names a draw-again class sits inside a ``for`` or
``while`` loop of its function anywhere else.

And no draw loop hides from them: a ``while True`` loop appears outside
``multspec.errors`` only in the functions listed in ``WHILE_TRUE_LOOPS``.

And work is metered only through ``multspec.errors``: outside it no function
takes a ``budget``, ``ticks`` or ``metered`` parameter, except the one
handle listed in ``METER_HANDLES``.

And every import sits at module level: no ``import`` or ``from ... import``
statement appears inside a function or method body.
"""

import ast
import builtins
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

from multspec import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "multspec"


def _used_names(text):
    """Counter of the NAME tokens of a source text, leaving out the name after def/class."""
    used = Counter()
    after_keyword = False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and not after_keyword:
            used[tok.string] += 1
        after_keyword = tok.type == tokenize.NAME and tok.string in ("def", "class")
    return used


def _overrides_foreign(module, cls_name, name):
    cls = getattr(importlib.import_module(f"multspec.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:] if not base.__module__.startswith("multspec"))


def _definitions(path):
    """(name, enclosing class name or None) of every def and class in one file,
    and the names bound by its module-level assignments, once per binding."""
    out = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.name, owner))
            walk(child, child.name if isinstance(child, ast.ClassDef) else None)

    tree = ast.parse(path.read_text())
    walk(tree, None)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return out, bound


def test_every_definition_in_src_is_used_in_src():
    used = Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        used.update(_used_names(path.read_text()))
        found, bound = _definitions(path)
        defs += [(path.stem, name, owner) for name, owner in found] + [(path.stem, name, None) for name in bound]
        used.subtract(bound)
    unused = sorted(
        f"{module}.{owner + '.' if owner else ''}{name}"
        for module, name, owner in defs
        if used[name] <= 0
        and not (name.startswith("__") and name.endswith("__"))
        and not (owner and _overrides_foreign(module, owner, name))
    )
    assert unused == []


RETRY_CLASSES = {"DegenerateInputError", "DegenerateMapError"}
ERROR_REPORTERS = {("cli", "run_command"), ("reproduce", "run_criterion")}


def _caught_names(handler):
    """The class names an except clause names; a bare except catches BaseException."""
    types = [] if handler.type is None else getattr(handler.type, "elts", [handler.type])
    return [getattr(t, "id", getattr(t, "attr", None)) for t in types] or ["BaseException"]


def _except_clauses(tree):
    """(enclosing function name or None, caught names) of every except clause."""
    out = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                out.append((func, _caught_names(child)))
            walk(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    walk(tree, None)
    return out


def _catches_package_errors(name):
    cls = getattr(errors, name, getattr(builtins, name, None))
    return isinstance(cls, type) and (issubclass(cls, errors.MultSpecError) or issubclass(errors.MultSpecError, cls))


def test_retry_clauses_catch_only_draw_again_errors():
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for func, names in _except_clauses(ast.parse(path.read_text())):
            if (path.stem, func) in ERROR_REPORTERS:
                continue
            broad += [
                f"{path.stem}.{func}: except {n}"
                for n in names
                if _catches_package_errors(n) and n not in RETRY_CLASSES
            ]
    assert broad == []


def _retry_clauses_in_loops(tree):
    """Line numbers of the except clauses that name a draw-again class inside
    a for or while loop of their own function (a nested def starts afresh)."""
    out = []

    def walk(node, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and in_loop and RETRY_CLASSES & set(_caught_names(child)):
                out.append(child.lineno)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                walk(child, False)
            else:
                walk(child, in_loop or isinstance(child, (ast.For, ast.AsyncFor, ast.While)))

    walk(tree, False)
    return out


def test_draw_again_loops_live_in_errors():
    loops = [
        f"{path.stem}.py:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "errors"
        for line in _retry_clauses_in_loops(ast.parse(path.read_text()))
    ]
    assert loops == []


# rejection sampling of a prime, the subresultant remainder sequence, and an
# endless generator of power sums: none of them draws again on a condition
WHILE_TRUE_LOOPS = ["exactalg._zz_resultant", "exactalg.random_prime", "polymoduli._period_two_traces"]


def _while_true_loops(tree, module):
    """The qualified name of the function around each ``while True`` loop."""
    out = []

    def walk(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.While) and isinstance(child.test, ast.Constant) and child.test.value is True:
                out.append(qual)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, f"{qual}.{child.name}" if named else qual)

    walk(tree, module)
    return out


def test_while_true_loops_are_listed():
    found = [
        qual
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "errors"
        for qual in _while_true_loops(ast.parse(path.read_text()), path.stem)
    ]
    assert sorted(found) == WHILE_TRUE_LOOPS


METER_PARAMETERS = {"budget", "ticks", "metered"}
# buchberger reads errors.limited() once and tells each reduction whether to spend
METER_HANDLES = ["groebner._reduce_terms.metered"]


def test_work_is_metered_through_errors():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "errors":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = func.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
                name = getattr(func, "name", "<lambda>")
                found += [f"{path.stem}.{name}.{n}" for n in names if n in METER_PARAMETERS]
    assert sorted(found) == METER_HANDLES


def test_imports_sit_at_module_level():
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.stem}.py:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(nested) == []
