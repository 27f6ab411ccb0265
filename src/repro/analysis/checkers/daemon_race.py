"""Daemon-race rule: shared ledgers move only through transition methods.

The simulated network is single-threaded, but it is still *concurrent*:
every ``Simulator.schedule`` / ``schedule_at`` callback (and every
``Ticker(sim, period, callback)`` callback) is a separate logical task, and two callback chains interleaving writes to the same
ledger (the grid's admission queue, the farm's pending/lease maps, a
health monitor's lease table) produce exactly the lost-update and
double-spend bugs a thread race would — just deterministically.

:mod:`repro.analysis.statecharts` declares, per ledger owner, which
attributes are guarded and which *transition methods* may mutate them.
This rule enforces the contract interprocedurally:

- any mutation of a guarded attribute outside the declared transition
  methods (``__init__`` is always allowed) is an error;
- a mutation written *inline* in a scheduled callback (a ``lambda`` or
  closure passed to ``schedule``/``schedule_at``) is an error even
  inside an owner class — callbacks must call a transition method, not
  poke the ledger;
- for classes with **no** declared contract, the same ``self._attr``
  mutated inline from two or more distinct schedule callbacks is
  flagged: that attribute is de-facto shared state and needs either a
  transition method or a declared contract.

A method-name call graph (intra-class, by terminal name) is closed over
so findings can say how many schedule chains actually reach the bad
site.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import terminal_name
from repro.analysis.core import Checker, Finding, SourceFile, SourceTree, \
    register
from repro.analysis.statecharts import CONTRACTS, SharedStateContract

#: method calls that mutate their receiver in place
_MUTATORS = frozenset({
    "append", "appendleft", "add", "remove", "pop", "popleft", "extend",
    "extendleft", "clear", "update", "discard", "insert", "setdefault",
    "rotate",
})

_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at"})


def _self_attr_root(node: ast.expr) -> str | None:
    """``self._attr`` at the root of an attribute/subscript chain, or None."""
    while isinstance(node, ast.Subscript | ast.Attribute):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        node = node.value
    return None


def _mutations(node: ast.AST) -> Iterator[tuple[str, int]]:
    """Yield ``(attr, lineno)`` for every ``self._attr`` mutation under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                attr = _self_attr_root(target)
                # plain ``self.x = ...`` rebinding is a write too, but only
                # count it when the target is the attr or a key under it
                if attr is not None:
                    yield attr, child.lineno
        elif isinstance(child, ast.AugAssign):
            attr = _self_attr_root(child.target)
            if attr is not None:
                yield attr, child.lineno
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                attr = _self_attr_root(target)
                if attr is not None:
                    yield attr, child.lineno
        elif isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute) \
                and child.func.attr in _MUTATORS:
            attr = _self_attr_root(child.func.value)
            if attr is not None:
                yield attr, child.lineno


def _schedule_callbacks(fn: ast.AST) -> Iterator[ast.expr]:
    """Every callback ``fn`` hands to schedule() / schedule_at() or to a
    ``Ticker(sim, period, callback)``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = terminal_name(node.func)
        if name in _SCHEDULE_NAMES and len(node.args) >= 2:
            yield node.args[1]
        elif name == "Ticker":
            yield from node.args[2:3]
            yield from (kw.value for kw in node.keywords
                        if kw.arg == "callback")


def _inline_callbacks(fn: ast.AST) -> Iterator[ast.AST]:
    """The body of every lambda or local closure ``fn`` schedules."""
    local_defs = {n.name: n for n in ast.walk(fn)
                  if isinstance(n, ast.FunctionDef) and n is not fn}
    for callback in _schedule_callbacks(fn):
        if isinstance(callback, ast.Lambda):
            yield callback.body
        elif isinstance(callback, ast.Name) and callback.id in local_defs:
            yield local_defs[callback.id]


@register
class DaemonRaceChecker(Checker):
    rule = "daemon-race"
    severity = "error"
    description = ("guarded shared ledgers may only be mutated through "
                   "their declared transition methods, never inline from "
                   "Simulator.schedule callback chains")
    contract = (
        "analysis/statecharts.py declares, per owner class, the guarded "
        "ledger attributes and the only methods allowed to mutate them. "
        "Any mutation site outside those methods is an error, as is an "
        "inline mutation inside a lambda/closure handed to "
        "Simulator.schedule, schedule_at or a Ticker (call a transition "
        "method instead).  In undeclared classes, the same self attribute "
        "mutated inline from two or more schedule callbacks is flagged "
        "as de-facto shared state.")
    example = (
        "self.sim.schedule(1.0, lambda: self._queue.append(req))\n"
        "# daemon-race: callback mutates the guarded ledger directly —\n"
        "# route through the declared transition method (_enqueue)\n")

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        for sf in tree.src_files:
            if sf.tree is None:
                continue
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                contract = self._contract_for(sf, node)
                if contract is not None:
                    yield from self._check_contract(sf, node, contract)
                else:
                    yield from self._check_undeclared(sf, node)

    @staticmethod
    def _contract_for(sf: SourceFile,
                      cls: ast.ClassDef) -> SharedStateContract | None:
        for contract in CONTRACTS:
            if cls.name == contract.owner and sf.rel.endswith(
                    contract.module):
                return contract
        return None

    # -- declared owners --------------------------------------------------------------

    def _check_contract(self, sf: SourceFile, cls: ast.ClassDef,
                        contract: SharedStateContract
                        ) -> Iterator[Finding]:
        guarded = set(contract.attrs)
        methods = {stmt.name: stmt for stmt in cls.body
                   if isinstance(stmt,
                                 ast.FunctionDef | ast.AsyncFunctionDef)}
        callers = self._reverse_call_graph(methods)
        for name, fn in methods.items():
            inline = self._inline_callback_mutations(fn, guarded)
            for attr, lineno in inline:
                yield self.finding(
                    sf, lineno,
                    f"{contract.owner}.{attr} mutated inline from a "
                    f"schedule callback in {name}() — callbacks must "
                    f"route through a declared transition method "
                    f"({', '.join(contract.transition_methods)})",
                    symbol=f"{contract.owner}.{name}:{attr}")
            if contract.allows(name):
                continue
            inline_lines = {lineno for _, lineno in inline}
            for attr, lineno in _mutations(fn):
                if attr not in guarded or lineno in inline_lines:
                    continue
                chains = self._schedule_chains(name, callers, methods)
                via = (f"; reachable from {chains} schedule callback "
                       f"chain{'s' if chains != 1 else ''}") if chains \
                    else ""
                yield self.finding(
                    sf, lineno,
                    f"{contract.owner}.{attr} mutated in {name}(), which "
                    f"is not a declared transition method "
                    f"({', '.join(contract.transition_methods)}){via}",
                    symbol=f"{contract.owner}.{name}:{attr}")

    @staticmethod
    def _inline_callback_mutations(fn: ast.AST, guarded: set[str]
                                   ) -> list[tuple[str, int]]:
        """Guarded-attr mutations inside schedule callbacks under ``fn``."""
        return [(attr, lineno) for body in _inline_callbacks(fn)
                for attr, lineno in _mutations(body) if attr in guarded]

    # -- call-graph closure -----------------------------------------------------------

    @staticmethod
    def _reverse_call_graph(methods: dict[str, ast.AST]
                            ) -> dict[str, set[str]]:
        """callee method name -> set of caller method names (intra-class)."""
        callers: dict[str, set[str]] = {name: set() for name in methods}
        for name, fn in methods.items():
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = terminal_name(node.func)
                    if callee in callers and callee != name:
                        callers[callee].add(name)
        return callers

    def _schedule_chains(self, method: str, callers: dict[str, set[str]],
                         methods: dict[str, ast.AST]) -> int:
        """How many schedule callbacks can (transitively) reach ``method``."""
        reach = {method}
        frontier = [method]
        while frontier:
            current = frontier.pop()
            for caller in callers.get(current, ()):
                if caller not in reach:
                    reach.add(caller)
                    frontier.append(caller)
        count = 0
        for fn in methods.values():
            for callback in _schedule_callbacks(fn):
                if isinstance(callback, ast.Lambda):
                    count += any(isinstance(node, ast.Call)
                                 and terminal_name(node.func) in reach
                                 for node in ast.walk(callback.body))
                elif isinstance(callback, ast.Attribute | ast.Name):
                    count += terminal_name(callback) in reach
        return count

    # -- undeclared classes -----------------------------------------------------------

    def _check_undeclared(self, sf: SourceFile,
                          cls: ast.ClassDef) -> Iterator[Finding]:
        """Same attr inline-mutated from >= 2 distinct schedule callbacks.

        Sites are deduplicated by line: a self-rescheduling closure that
        registers itself again counts once, not once per registration.
        """
        sites: dict[str, set[int]] = {}
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef):
                continue
            for body in _inline_callbacks(stmt):
                for attr, lineno in _mutations(body):
                    sites.setdefault(attr, set()).add(lineno)
        for attr, line_set in sorted(sites.items()):
            lines = sorted(line_set)
            if len(lines) < 2:
                continue
            yield self.finding(
                sf, lines[0],
                f"{cls.name}.{attr} is mutated inline from "
                f"{len(lines)} distinct schedule callbacks (lines "
                f"{', '.join(str(ln) for ln in lines)}) — this is "
                f"de-facto shared state; add a transition method and "
                f"declare a SharedStateContract in "
                f"analysis/statecharts.py",
                symbol=f"{cls.name}:{attr}")
