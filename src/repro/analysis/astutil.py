"""Small AST helpers shared by the ravelint checkers."""

from __future__ import annotations

import ast

from repro.analysis.core import SourceFile, SourceTree

#: relative path of the shared vocabulary module inside the tree
VOCAB_REL = "src/repro/obs/vocab.py"


def terminal_name(node: ast.expr) -> str | None:
    """The identifier a ``Name`` or ``Attribute`` expression ends in."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def import_aliases(module: ast.Module) -> dict[str, str]:
    """Local name -> absolute dotted target for every import binding.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    monotonic as mono`` maps ``mono -> time.monotonic``.  Imports are
    collected from the whole module (including function bodies) because
    a deferred ``import random`` inside a method still binds the same
    module.  Relative imports resolve to nothing useful from text alone
    and are skipped.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """A call target as an absolute dotted path, or ``None``.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; calls on local variables (``rng.random``)
    resolve to ``None`` because their receiver is not an imported name.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    return ".".join([base, *reversed(parts)]) if parts else base


def literal_env(module: ast.Module) -> dict[str, object]:
    """Statically evaluate a constants-only module's top-level bindings.

    Supports exactly what :mod:`repro.obs.vocab` uses: string/number
    constants, names referring to earlier bindings, ``set``/``tuple``/
    ``list`` displays, ``frozenset({...})`` calls and ``|`` unions of
    sets.  Anything else simply does not land in the environment.
    """
    env: dict[str, object] = {}
    for stmt in module.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = _eval_literal(stmt.value, env)
        if value is not None:
            env[target.id] = value
    return env


def _eval_literal(node: ast.expr, env: dict[str, object]) -> object | None:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        items = [_eval_literal(el, env) for el in node.elts]
        if any(item is None for item in items):
            return None
        return frozenset(items)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "frozenset" and len(node.args) == 1 \
            and not node.keywords:
        inner = _eval_literal(node.args[0], env)
        return frozenset(inner) if isinstance(inner, frozenset) else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _eval_literal(node.left, env)
        right = _eval_literal(node.right, env)
        if isinstance(left, frozenset) and isinstance(right, frozenset):
            return left | right
    return None


def vocab_env(tree: SourceTree) -> tuple[SourceFile | None, dict[str, object]]:
    """The vocabulary module and its statically-evaluated bindings."""
    sf = tree.find("obs/vocab.py")
    if sf is None or sf.tree is None:
        return None, {}
    return sf, literal_env(sf.tree)


def str_set(env: dict[str, object], name: str) -> frozenset[str]:
    """A frozenset-of-strings binding from ``env`` (empty if absent)."""
    value = env.get(name)
    if isinstance(value, frozenset) \
            and all(isinstance(v, str) for v in value):
        return value
    return frozenset()
