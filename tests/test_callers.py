"""Every public name of ``flatorb`` has a caller outside the tests.

A public function, class or method (no leading underscore, defined at
module level or directly in a module-level class) passes when the code
under ``src/``, ``scripts/`` or ``perfbench/`` reads it outside its own
definition, or when README.md names it in code: a function or class by its
name, a method as ``.name``.  The ``cmd_*`` functions of ``cli`` pass
because the parser dispatches them.  Imports, assignments and ``__all__``
entries are not reads.  Test-only algebra lives in
``tests/reference_algebra.py``.

A read is resolved the way Python resolves it.  A bare name reads a
module-level name of ``mod`` in ``mod`` itself, unless a function scope
binds it (a parameter or a local), and in a file that imports it with
``from .mod import name`` (or from ``flatorb``, which re-exports it).  An
attribute ``base.name`` reads ``mod.name`` when ``base`` is bound to the
module ``mod`` by an import or is spelled like it (``rational.rank`` on a
module fetched with ``importlib``).  A method is read by any attribute of
its name, whatever the object.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flatorb"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
MODULES = frozenset(p.stem for p in PACKAGE.glob("*.py")) - {"__init__"}


def _exports() -> dict:
    """Name -> module stem of the names ``flatorb/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        a.asname or a.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES
        for a in node.names
    }


def _import_bindings(node, exports) -> dict:
    """Local name -> binding of one import statement.

    A binding is ("module", stem), ("package",) or ("name", stem, name).
    """
    out = {}
    if isinstance(node, ast.Import):
        for a in node.names:
            parts = a.name.split(".")
            if parts[0] != "flatorb":
                out[a.asname or parts[0]] = None
            elif a.asname is None:
                out["flatorb"] = ("package",)
            else:
                out[a.asname] = ("module", parts[1]) if len(parts) == 2 else ("package",)
        return out
    parts = (node.module or "").split(".")
    if node.level == 0 and parts[0] == "flatorb":
        parts = parts[1:]
    elif node.level != 1:
        return {a.asname or a.name: None for a in node.names}
    for a in node.names:
        local = a.asname or a.name
        if parts in ([], [""]):  # from flatorb import x / from . import x
            if a.name in MODULES:
                out[local] = ("module", a.name)
            else:
                out[local] = ("name", exports.get(a.name, "__init__"), a.name)
        else:
            out[local] = ("name", parts[0], a.name)
    return out


def _target_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            yield n.id


def _scope_locals(node, exports) -> dict:
    """Name -> binding (None for a plain value) of what a function, lambda or comprehension binds."""
    local = {}
    if isinstance(node, COMPREHENSIONS):
        for gen in node.generators:
            local.update(dict.fromkeys(_target_names(gen.target)))
        return local
    args = node.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
        if a is not None:
            local[a.arg] = None
    if isinstance(node, ast.Lambda):
        return local
    declared = set()
    stack = list(node.body)
    while stack:
        n = stack.pop()
        if isinstance(n, (*FUNCTIONS, ast.ClassDef)):
            local[n.name] = None
            continue
        if isinstance(n, (ast.Lambda, *COMPREHENSIONS)):
            continue
        if isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            local.update(_import_bindings(n, exports))
        elif isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            local.setdefault(n.id, None)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            local.setdefault(n.name, None)
        stack.extend(ast.iter_child_nodes(n))
    return {k: v for k, v in local.items() if k not in declared}


class _Reads(ast.NodeVisitor):
    """The reads of one file, counted by (key, enclosing definitions).

    A key is (stem, name) for a module-level name and (None, name) for an
    attribute read as a method; the enclosing definitions are the
    (stem, qualified name) of the functions and classes around the read.
    """

    def __init__(self, module, exports):
        self.module, self.exports = module, exports
        self.scopes = [{}]
        self.enclosing: list = []
        self.counts: Counter = Counter()

    def _count(self, key):
        self.counts[key, tuple(self.enclosing)] += 1

    def _lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return True, scope[name]
        return False, None

    def _module_of(self, node):
        """The binding of an attribute's base when it is a module or the package, else None."""
        if isinstance(node, ast.Attribute):
            outer = self._module_of(node.value)
            return ("module", node.attr) if outer == ("package",) and node.attr in MODULES else None
        if not isinstance(node, ast.Name):
            return None
        _, binding = self._lookup(node.id)
        if binding is None and node.id in MODULES:
            return ("module", node.id)
        if binding is None and node.id == "flatorb":
            return ("package",)
        return binding if binding and binding[0] != "name" else None

    def visit_Module(self, node):
        stack = list(node.body)
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                self.scopes[0].update(_import_bindings(n, self.exports))
            elif not isinstance(n, (*FUNCTIONS, ast.Lambda, *COMPREHENSIONS)):
                stack.extend(ast.iter_child_nodes(n))
        self.generic_visit(node)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load):
            return
        found, binding = self._lookup(node.id)
        if found and binding is not None and binding[0] == "name":
            self._count(binding[1:])
        elif not found and self.module is not None:
            self._count((self.module, node.id))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._count((None, node.attr))
            base = self._module_of(node.value)
            if base == ("package",):
                self._count((self.exports.get(node.attr, "__init__"), node.attr))
            elif base is not None:
                self._count((base[1], node.attr))
        self.visit(node.value)

    def _qualname(self, name):
        return f"{self.enclosing[-1][1]}.{name}" if self.enclosing else name

    def _visit_scope(self, node, body):
        self.scopes.append(_scope_locals(node, self.exports))
        for n in body:
            self.visit(n)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        for n in (*node.decorator_list, node.args, *([node.returns] if node.returns else [])):
            self.visit(n)
        self.enclosing.append((self.module, self._qualname(node.name)))
        self._visit_scope(node, node.body)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        for n in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(n)
        self.enclosing.append((self.module, self._qualname(node.name)))
        for n in node.body:
            self.visit(n)
        self.enclosing.pop()

    def visit_Lambda(self, node):
        self.visit(node.args)
        self._visit_scope(node, [node.body])

    def _visit_comprehension(self, node):
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self._visit_scope(node, [*node.generators, *elts])

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _visit_comprehension

    def visit_arguments(self, node):
        for n in (*node.defaults, *node.kw_defaults):
            if n is not None:
                self.visit(n)
        for a in (*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg):
            if a is not None and a.annotation is not None:
                self.visit(a.annotation)


def _reads(source: str, module=None, exports=None) -> Counter:
    """The reads of one file's source, ``module`` the stem of the flatorb module it is."""
    visitor = _Reads(module, _exports() if exports is None else exports)
    visitor.visit(ast.parse(source))
    return visitor.counts


def _is_read(reads: Counter, key, definition) -> bool:
    """Whether ``key`` is read somewhere outside ``definition``."""
    return any(k == key and definition not in enclosing for (k, enclosing) in reads)


def _public_definitions(tree):
    """(qualified name, node) of a module's public functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    exports = _exports()
    reads = Counter()
    for d in ("src", "scripts", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            module = path.stem if path.parent == PACKAGE else None
            reads.update(_reads(path.read_text(), module, exports))
    readme_code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))
    readme_names, readme_attrs = set(re.findall(r"\w+", readme_code)), set(re.findall(r"\.(\w+)", readme_code))
    public, uncalled = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _public_definitions(ast.parse(path.read_text())):
            name = f"{path.stem}.{qualname}"
            public.append(name)
            is_method = "." in qualname
            key = (None, node.name) if is_method else (path.stem, node.name)
            if (
                _is_read(reads, key, (path.stem, qualname))
                or name.startswith("cli.cmd_")
                or node.name in (readme_attrs if is_method else readme_names)
            ):
                continue
            uncalled.append(name)
    assert "rational.echelon" in public
    assert uncalled == []


def test_a_same_named_variable_or_attribute_is_not_a_read():
    source = (
        "from . import rational as ra\n"
        "from .groups import AffineElement\n"
        "\n"
        "def f(identity, g):\n"
        "    rank = g.rank\n"
        "    echelon = [x for x in g]\n"
        "    return identity, rank, echelon, AffineElement.identity(2), ra.det(g)\n"
        "\n"
        "def h(M):\n"
        "    return kernel(M) + h(M)\n"
    )
    keys = {key for key, _ in _reads(source, module="collapse", exports={})}
    # a parameter, a local and a method of another class are not rational's functions
    assert ("rational", "identity") not in keys
    assert ("rational", "rank") not in keys
    assert ("rational", "echelon") not in keys
    # a module attribute and an imported name are
    assert ("rational", "det") in keys and ("groups", "AffineElement") in keys
    # a method is read by its attribute name on any object
    assert (None, "identity") in keys and (None, "rank") in keys
    # an unbound name is the module's own; a call inside its definition is not a caller
    reads = _reads(source, module="collapse", exports={})
    assert ("collapse", "kernel") in keys
    assert not _is_read(reads, ("collapse", "h"), ("collapse", "h"))
    assert _is_read(reads, ("collapse", "kernel"), ("collapse", "kernel"))
    # a module fetched by name, not by an import, is read through its own stem
    keys = {key for key, _ in _reads("rational = load('rational')\nrational.rank(M)\n", exports={})}
    assert ("rational", "rank") in keys
