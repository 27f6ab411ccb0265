"""API-surface drift: ``__all__`` must match what a module really binds.

Two failure modes, both silent until an import explodes (or worse,
quietly exports nothing):

- **stale export** — a name listed in ``__all__`` that the module never
  defines or imports: ``from repro.x import *`` raises
  ``AttributeError`` at a distance (error, every module);
- **missing export** — a public name a package ``__init__.py`` defines
  or re-exports from inside ``repro`` but forgot to list in
  ``__all__``, so the documented surface and the real surface disagree
  (warning, ``__init__.py`` only; stdlib/third-party imports are
  implementation details and exempt).

A package ``__init__`` may bind its ``__all__`` from a lazy-export
table instead (``__all__, __getattr__, __dir__ = lazy_exports(__name__,
{module: names})``, see :mod:`repro._lazy`).  Each table entry must
name a module under ``src/repro`` whose top level binds that name
(error): a bad entry raises only when the name is first used.

Top-level ``if``/``try`` bodies count as module scope because guarded
imports and conditional definitions are normal Python.
"""

from __future__ import annotations

from collections.abc import Iterator
import ast

from repro.analysis.core import Checker, Finding, SourceFile, SourceTree, \
    register

#: the helper a package ``__init__`` builds its lazy-export table with
LAZY_HELPER = "lazy_exports"


def _top_level(module: ast.Module) -> Iterator[ast.stmt]:
    """Module-body statements, descending into if/try blocks."""
    stack = list(module.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


@register
class ApiSurfaceChecker(Checker):
    rule = "api-surface"
    severity = "error"
    description = ("__all__ entries must exist, lazy-export entries must "
                   "name a module that binds them, and package __init__ "
                   "re-exports must be listed in __all__")
    contract = (
        "Every name in a module's __all__ must be defined or imported "
        "in that module, or come from a lazy-export table entry whose "
        "module is under src/repro and binds the name at top level; and "
        "every public re-export in a package __init__ must appear in its "
        "__all__ — the declared API surface and the real one may not "
        "drift apart.")
    example = ("__all__ = [\"Widget\"]        # api-surface: Widget is\n"
               "                             # never defined or imported\n")

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        scans = {sf.rel: self._scan(sf.tree) for sf in tree.src_files
                 if sf.tree is not None}
        for rel, scan in scans.items():
            yield from self._check_module(tree.by_rel[rel], scan, scans)

    def _check_module(self, sf: SourceFile, scan,
                      scans: dict) -> Iterator[Finding]:
        bound, exported, exported_line, reexports, lazy = scan
        if exported is None:
            return

        for name, line in sorted(exported.items()):
            if name in lazy:
                yield from self._check_lazy(sf, scans, name, lazy[name],
                                            line)
            elif name not in bound:
                yield self.finding(
                    sf, line or exported_line,
                    f"__all__ exports {name!r} but the module never "
                    f"defines or imports it — star-imports raise "
                    f"AttributeError",
                    symbol=name)

        if not sf.rel.endswith("__init__.py"):
            return
        for name, line in sorted(reexports.items()):
            if name not in exported:
                yield self.finding(
                    sf, line,
                    f"{name!r} is re-exported from inside repro but "
                    f"missing from __all__ — the public surface and the "
                    f"real surface disagree",
                    symbol=name, severity="warning")

    def _check_lazy(self, sf: SourceFile, scans: dict, name: str,
                    module: str, line: int) -> Iterator[Finding]:
        path = "src/" + module.replace(".", "/")
        source = scans.get(path + ".py") or scans.get(path + "/__init__.py")
        if source is None:
            yield self.finding(
                sf, line,
                f"lazy export {name!r} names {module!r}, which is not a "
                f"module under src/repro — its first use raises "
                f"ModuleNotFoundError",
                symbol=name)
        elif name not in source[0]:
            yield self.finding(
                sf, line,
                f"lazy export {name!r} names {module!r}, which never "
                f"binds it at top level — its first use raises "
                f"AttributeError",
                symbol=name)

    @classmethod
    def _scan(cls, module: ast.Module):
        """Top-level bindings, ``__all__``, re-exports and lazy table.

        Returns ``(bound, exported, exported_line, reexports, lazy)``:
        name -> line for what the module binds, what ``__all__`` lists
        (None without one) and what it re-exports from inside repro, and
        name -> defining module for a lazy-export table.
        """
        bound: dict[str, int] = {}
        exported: dict[str, int] | None = None
        exported_line = 1
        reexports: dict[str, int] = {}
        lazy: dict[str, str] = {}

        for stmt in _top_level(module):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.setdefault(stmt.name, stmt.lineno)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            exported = cls._exports(stmt.value)
                            exported_line = stmt.lineno
                        else:
                            bound.setdefault(target.id, stmt.lineno)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for el in target.elts:
                            if isinstance(el, ast.Name):
                                bound.setdefault(el.id, el.lineno)
                table = cls._lazy_table(stmt.value)
                if table is not None:
                    exported = {}
                    for name, (source, line) in table.items():
                        lazy[name], exported[name] = source, line
                    exported_line = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                bound.setdefault(stmt.target.id, stmt.lineno)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(local, stmt.lineno)
            elif isinstance(stmt, ast.ImportFrom):
                internal = stmt.level > 0 or (
                    stmt.module or "").split(".")[0] == "repro"
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bound.setdefault(local, stmt.lineno)
                    if internal and not local.startswith("_"):
                        reexports.setdefault(local, stmt.lineno)
        if lazy:
            # the table's builder is imported to be called, not re-exported
            reexports.pop(LAZY_HELPER, None)
        return bound, exported, exported_line, reexports, lazy

    @classmethod
    def _lazy_table(cls, node: ast.expr
                    ) -> dict[str, tuple[str, int]] | None:
        """name -> (module, line) of a ``lazy_exports(__name__, {...})``."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == LAZY_HELPER and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)):
            return None
        table: dict[str, tuple[str, int]] = {}
        for key, names in zip(node.args[1].keys, node.args[1].values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                for name, line in cls._exports(names).items():
                    table.setdefault(name, (key.value, line))
        return table

    @staticmethod
    def _exports(node: ast.expr) -> dict[str, int]:
        """``__all__`` entries -> line, for list/tuple string displays."""
        out: dict[str, int] = {}
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for el in node.elts:
                if isinstance(el, ast.Constant) \
                        and isinstance(el.value, str):
                    out.setdefault(el.value, el.lineno)
        return out
