"""Import hygiene of the package, checked with the standard `ast` module.

Every name a module imports is used in it: read somewhere in its code, or
(for the package's `__init__`) exported through `__all__`. And
`raagdecomp.__all__` lists exactly the package's public names that are
not submodules.
"""

import ast
from pathlib import Path
import types

import raagdecomp

PACKAGE = Path(raagdecomp.__file__).resolve().parent


def _imported(tree):
    """Names bound by the module's import statements, with their line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names read anywhere in the module, in string annotations too, plus
    the entries of a literal `__all__`."""
    used = set()
    texts = []  # annotations and __all__, whose strings name names
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            texts.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            texts.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            texts.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            texts.append(node.value)
    for text in filter(None, texts):
        used.update(c.value for c in ast.walk(text)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _used(tree)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _imported(tree).items()
                   if name not in used]
    assert unused == []


def test_all_lists_the_public_names():
    public = {name for name, value in vars(raagdecomp).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(raagdecomp.__all__) == sorted(public)
    assert len(set(raagdecomp.__all__)) == len(raagdecomp.__all__)


# What the oracles may take from the production modules: the graph type,
# the word types and `_built`, which makes a word of codes with no logic,
# and the closure kernels. A production search routed into an oracle would
# make the cross-checks compare the production code with itself.
ORACLE_IMPORTS = {
    "graphs": {"SimplicialGraph"},
    "words": {"NormalForm", "Word", "_built", "_same_graph"},
    "kernels": {"closure_canonical", "closure_equal"},
}


def test_oracles_import_only_the_allowlisted_production_names():
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:  # from . import module
                    taken.setdefault(alias.name, set())
                else:
                    taken.setdefault(node.module, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("raagdecomp") for a in node.names)
    # a module imported whole is used through its attributes
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in taken:
            taken[node.value.id].add(node.attr)
    taken.pop("errors", None)  # the exception types carry no logic
    beyond = {module: sorted(names - ORACLE_IMPORTS.get(module, set()))
              for module, names in taken.items()}
    assert {module: names for module, names in beyond.items() if names} == {}
