"""Event/alert-kind consistency: one shared vocabulary, machine-checked.

Flight-recorder ``note(kind, ...)`` tags, per-service telemetry
``event(kind, ...)`` tags, ``AlertRule``/``Alert`` kinds and every
``.kind == "..."`` comparison in the migrator/autoscaler must name
members of the vocabularies declared in :mod:`repro.obs.vocab` —
otherwise a producer and its consumer can drift apart silently (the
autoscaler filtering on ``"grid-overload"`` while a rule fires
``"grid_overload"`` would simply never scale).

Accepted kind expressions at a ``note``/``event`` call site:

- a string literal that is a vocabulary member, or that starts with a
  declared dynamic prefix (``"fault:crash"``);
- a ``Name``/``Attribute`` whose terminal identifier is a constant
  defined by the vocabulary module (``EVENT_MIGRATION``);
- a concatenation or f-string whose *leading* part is one of the above
  prefixes (``EVENT_FAULT_PREFIX + kind``, ``f"telemetry:{kind}"``);
- a conditional expression whose two branches are each one of the above
  (``EVENT_RESTORE if restore else EVENT_SHED``).

Anything else — an unknown literal, or an expression built from names
the vocabulary does not define — is a finding.
"""

from __future__ import annotations

from collections.abc import Iterator
import ast

from repro.analysis.astutil import VOCAB_REL, terminal_name, vocab_env, \
    str_set
from repro.analysis.core import Checker, Finding, SourceFile, SourceTree, \
    register


@register
class KindVocabularyChecker(Checker):
    rule = "event-kind"
    severity = "error"
    description = ("flight-recorder, telemetry and alert kinds must come "
                   "from the obs/vocab vocabularies")
    contract = (
        "Every event/alert/service kind produced (recorder.note, "
        "telemetry, alert rules) or compared (.kind == ...) must be a "
        "constant from obs/vocab.py or extend one of its declared "
        "prefixes — ad-hoc kind strings silently split dashboards and "
        "alert routing.")
    example = ("recorder.note(\"migrations\", ...)   # event-kind: not in\n"
               "                                   # the vocabulary\n")

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        vocab_sf, env = vocab_env(tree)
        if vocab_sf is None:
            yield self.finding(
                VOCAB_REL, 1,
                "vocabulary module obs/vocab.py not found — event/alert "
                "kinds have no source of truth to check against",
                symbol="missing-vocab")
            return
        self._names = frozenset(n for n, v in env.items()
                                if isinstance(v, str))
        self._event_kinds = str_set(env, "EVENT_KINDS")
        self._prefixes = str_set(env, "EVENT_PREFIXES")
        self._alert_kinds = str_set(env, "ALERT_KINDS")
        self._telemetry_kinds = str_set(env, "TELEMETRY_EVENT_KINDS")
        self._known_kinds = str_set(env, "KNOWN_KINDS") or (
            self._event_kinds | self._alert_kinds | self._telemetry_kinds)
        for sf in tree.src_files:
            if sf.tree is None or sf is vocab_sf:
                continue
            yield from self._check_file(sf)

    def _check_file(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(sf, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(sf, node)

    # -- emission sites -------------------------------------------------------------

    def _check_call(self, sf, node: ast.Call) -> Iterator[Finding]:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("note", "event") and node.args:
                allowed = (self._event_kinds if attr == "note"
                           else self._telemetry_kinds)
                yield from self._check_kind_expr(
                    sf, node.args[0], allowed,
                    f"{attr}() kind")
            elif attr == "startswith" \
                    and self._is_kind_expr(node.func.value) and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str) \
                        and not self._prefix_ok(arg.value) \
                        and arg.value not in self._known_kinds:
                    yield self.finding(
                        sf, arg.lineno,
                        f"kind prefix {arg.value!r} is not a declared "
                        f"obs/vocab prefix",
                        symbol=arg.value)
        # constructor kinds: AlertRule(kind=...), Alert(kind=...) — both
        # bare names and attribute paths (rules.Alert)
        func_name = terminal_name(node.func)
        if func_name in ("Alert", "AlertRule"):
            for kw in node.keywords:
                if kw.arg != "kind":
                    continue
                value = kw.value
                if isinstance(value, ast.Constant) \
                        and isinstance(value.value, str) \
                        and value.value not in self._alert_kinds:
                    yield self.finding(
                        sf, value.lineno,
                        f"alert kind {value.value!r} is not in "
                        f"obs/vocab.ALERT_KINDS — the migrator/autoscaler "
                        f"will never match it",
                        symbol=value.value)

    def _check_kind_expr(self, sf, expr: ast.expr,
                         allowed: frozenset[str],
                         what: str) -> Iterator[Finding]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            if expr.value not in allowed \
                    and not self._prefix_ok(expr.value):
                yield self.finding(
                    sf, expr.lineno,
                    f"{what} {expr.value!r} is not in the obs/vocab "
                    f"vocabulary (and matches no declared prefix)",
                    symbol=expr.value)
            return
        if isinstance(expr, (ast.Name, ast.Attribute)):
            name = terminal_name(expr)
            if name is not None and name not in self._names:
                yield self.finding(
                    sf, expr.lineno,
                    f"{what} is the identifier {name!r}, which obs/vocab "
                    f"does not define — route the kind through the shared "
                    f"vocabulary",
                    symbol=name)
            return
        if isinstance(expr, ast.IfExp):
            for branch in (expr.body, expr.orelse):
                yield from self._check_kind_expr(sf, branch, allowed, what)
            return
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            yield from self._check_prefix_part(sf, expr.left, what)
            return
        if isinstance(expr, ast.JoinedStr) and expr.values:
            yield from self._check_prefix_part(sf, expr.values[0], what)
            return
        yield self.finding(
            sf, expr.lineno,
            f"{what} cannot be statically tied to the obs/vocab "
            f"vocabulary — use a vocabulary constant or prefix",
            symbol=ast.dump(expr)[:40])

    def _check_prefix_part(self, sf, part: ast.expr,
                           what: str) -> Iterator[Finding]:
        """The leading piece of a concatenated/interpolated kind."""
        if isinstance(part, ast.FormattedValue):
            part = part.value
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            if not self._prefix_ok(part.value):
                yield self.finding(
                    sf, part.lineno,
                    f"{what} starts with {part.value!r}, which is not a "
                    f"declared obs/vocab prefix",
                    symbol=part.value)
            return
        name = terminal_name(part)
        if name is None or name not in self._names:
            yield self.finding(
                sf, part.lineno,
                f"{what} is built from {name or 'an expression'!r} that "
                f"obs/vocab does not define",
                symbol=name or "<expr>")

    def _prefix_ok(self, value: str) -> bool:
        return any(value == p or value.startswith(p)
                   for p in self._prefixes)

    # -- comparison sites -----------------------------------------------------------

    @staticmethod
    def _is_kind_expr(node: ast.expr) -> bool:
        """``x.kind``, ``x["kind"]`` or ``x.get("kind")`` receivers."""
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            return True
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Constant) \
                and node.slice.value == "kind":
            return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value == "kind":
            return True
        return False

    def _check_compare(self, sf, node: ast.Compare) -> Iterator[Finding]:
        sides = [node.left, *node.comparators]
        if not any(self._is_kind_expr(side) for side in sides):
            return
        for side in sides:
            literals: list[ast.Constant] = []
            if isinstance(side, ast.Constant):
                literals = [side]
            elif isinstance(side, (ast.Set, ast.Tuple, ast.List)):
                literals = [el for el in side.elts
                            if isinstance(el, ast.Constant)]
            for lit in literals:
                if not isinstance(lit.value, str):
                    continue
                if lit.value in self._known_kinds \
                        or self._prefix_ok(lit.value):
                    continue
                yield self.finding(
                    sf, lit.lineno,
                    f"comparison against kind {lit.value!r}, which no "
                    f"obs/vocab vocabulary declares — producer and "
                    f"consumer can drift silently",
                    symbol=lit.value)
