"""Derived work is shared through the object memo, never handed over.

No function takes a private parameter (a caller-supplied copy of something
the library can keep on its own objects), and the command line calls only
public names of the library modules.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hypermorse")
LIBRARY_MODULES = ("morse", "morphisms", "chains", "exact", "hypercore")


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def test_no_function_takes_a_private_parameter():
    private = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            private += [
                "%s:%d %s(%s)" % (os.path.basename(path), node.lineno, node.name, p.arg)
                for p in params
                if p.arg.startswith("_")
            ]
    assert private == []


def test_cli_uses_no_private_library_name():
    reach_ins = []
    for node in ast.walk(_tree(os.path.join(SRC, "cli.py"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in LIBRARY_MODULES
            and node.attr.startswith("_")
        ):
            reach_ins.append("%s.%s" % (node.value.id, node.attr))
        if isinstance(node, ast.ImportFrom) and (node.module or "") in LIBRARY_MODULES:
            reach_ins += [
                "%s.%s" % (node.module, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert reach_ins == []
