"""The package holds only what a command or script runs.

A static walk starts at the command line's entry point (cli.main) and at
every script under scripts/, and follows name references through the
bodies of the functions and classes it reaches.  Every top-level function
and class of src/curvscat must be reached, and so must every name the
package exports; what only the tests use lives in tests/_reference.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvscat"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# no command runs these yet: the symmetry group, pde_residual and
# deflection_deep are kept as the makings of future verify line items
RESERVED = {"pde_residual", "deflection_deep", "apply_symmetry",
            "transform_point", "TimeTranslate", "TimeReverse", "Homologous"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_of(name: str, level: int) -> str:
    """Package-relative module key: '__init__' for the package itself."""
    parts = name.split(".") if name else []
    if level == 0:
        if not parts or parts[0] != "curvscat":
            return ""
        parts = parts[1:]
    return parts[0] if parts else "__init__"


class _Module:
    """One module's top-level definitions and the names its imports bind."""

    def __init__(self, tree: ast.Module):
        self.defs: dict[str, ast.AST] = {}
        self.roots: list[ast.AST] = []
        self.imports: dict[str, tuple[str, str]] = {}
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.defs[t.id] = stmt
                # a constant is reached when it is referenced; an assignment
                # that calls something runs at import, so it is a root too
                if any(isinstance(n, ast.Call) for n in ast.walk(stmt)):
                    self.roots.append(stmt)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom))
                      or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                self.roots.append(stmt)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = _module_of(node.module or "", node.level)
                for a in node.names:
                    # 'from . import x' binds a submodule when x is one
                    sub = mod == "__init__" and (PACKAGE / f"{a.name}.py").is_file()
                    self.imports[a.asname or a.name] = (a.name, "") if sub else (mod, a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    mod = _module_of(a.name, 0)
                    if a.asname and mod:
                        self.imports[a.asname] = (mod, "")


class _Walk:
    def __init__(self):
        self.modules = {p.stem: _Module(ast.parse(p.read_text(), filename=str(p)))
                        for p in PACKAGE.glob("*.py")}
        self.reached: set[tuple[str, str]] = set()

    def lookup(self, where: str, m: _Module, name: str):
        """(module, name) of the definition a name in module m (keyed where)
        refers to, (module, '') for a module, None outside the package."""
        if name in m.defs:
            return (where, name)
        if name in m.imports:
            target, attr = m.imports[name]
            return (target, "") if not attr else self.resolve(target, attr)
        return None

    def resolve(self, mod: str, name: str):
        m = self.modules.get(mod)
        return None if m is None else self.lookup(mod, m, name)

    def _expr(self, where: str, m: _Module, node):
        if isinstance(node, ast.Name):
            return self.lookup(where, m, node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr(where, m, node.value)
            if base is not None and base[1] == "":
                return self.resolve(base[0], node.attr)
        return None

    def visit(self, where: str, m: _Module, nodes) -> None:
        stack = [(where, m, n) for n in nodes]
        while stack:
            where, m, node = stack.pop()
            for sub in ast.walk(node):
                hit = self._expr(where, m, sub)
                # a script's own definitions are walked with the script
                if (hit is None or hit[1] == "" or hit[0] not in self.modules
                        or hit in self.reached):
                    continue
                self.reached.add(hit)
                owner = self.modules[hit[0]]
                stack.append((hit[0], owner, owner.defs[hit[1]]))


def _walk() -> _Walk:
    walk = _Walk()
    for stem, m in walk.modules.items():
        if stem != "__init__":
            walk.visit(stem, m, m.roots)
    walk.visit("cli", walk.modules["cli"], [ast.Name("main", ast.Load())])
    for path in SCRIPTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        walk.visit("", _Module(tree), [tree])
    return walk


def test_every_function_and_class_is_reached():
    walk = _walk()
    unreached = {name for stem, m in walk.modules.items()
                 for name, node in m.defs.items()
                 if isinstance(node, _DEFS) and (stem, name) not in walk.reached}
    assert unreached == RESERVED


def test_every_export_is_reached():
    walk = _walk()
    exports = {name: walk.resolve("__init__", name)
               for name in walk.modules["__init__"].imports}
    assert all(exports.values())
    assert {name for name, hit in exports.items() if hit not in walk.reached} == set()
