"""Determinism checker: no wall clocks, no hidden global RNG state.

The whole reproduction is a discrete-event simulation: every timing the
paper tables report flows through ``repro.network.clock.SimClock``, and
``network/clock.py`` explicitly bans wall-clock time from the results.
Randomness has the same contract — every stochastic component threads a
*seeded* ``random.Random`` or ``numpy.random.Generator`` so the same
seed replays the same run.

This rule therefore flags, anywhere under ``src/repro``:

- wall-clock reads and sleeps (``time.time``/``monotonic``/``sleep``/
  ``perf_counter``..., ``datetime.now``/``utcnow``/``today``);
- ambient entropy (``uuid.uuid1``/``uuid4``, ``os.urandom``,
  ``secrets.*``);
- module-level RNG calls that use the interpreter's hidden global state
  (``random.random()``, ``numpy.random.shuffle()``, ...);
- RNG constructors created *without a seed* (``random.Random()``,
  ``numpy.random.default_rng()``, ``RandomState()``, ``SeedSequence()``);
- a second simulated clock: ``SimClock(...)`` constructed anywhere but
  ``network/clock.py`` forks simulated time by hand — overlap goes
  through ``Simulator.branch`` / ``fork_join``.

Seeded constructors pass, as do calls on locally held generator objects
(``self.rng.random()`` resolves to a variable, not an import).
"""

from __future__ import annotations

from collections.abc import Iterator
import ast

from repro.analysis.astutil import import_aliases, resolve_call
from repro.analysis.core import Checker, Finding, SourceTree, register

#: absolute call targets that are never allowed in simulation code
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "time.sleep": "wall-clock sleep",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
    "os.urandom": "ambient entropy",
    "secrets.token_bytes": "ambient entropy",
    "secrets.token_hex": "ambient entropy",
    "secrets.token_urlsafe": "ambient entropy",
    "secrets.randbelow": "ambient entropy",
    "secrets.choice": "ambient entropy",
}

#: RNG constructors that are deterministic only when explicitly seeded
SEED_REQUIRED = {
    "random.Random",
    "random.SystemRandom",      # never acceptable, but caught as unseeded
    "numpy.random.RandomState",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
}

#: the clock constructor (and its package re-export): only
#: ``network/clock.py`` itself, where the bare name resolves to no import,
#: may build one
CLOCK_CONSTRUCTORS = {
    "repro.network.clock.SimClock",
    "repro.network.SimClock",
}

#: modules whose bare functions mutate interpreter-global RNG state
GLOBAL_RNG_MODULES = ("random", "numpy.random")


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    severity = "error"
    description = ("all timing must flow through SimClock and all "
                   "randomness through explicitly seeded generators")
    contract = (
        "Simulation results must replay byte for byte: src modules may "
        "not read wall-clock time (time.time, datetime.now, "
        "perf_counter...) or use unseeded randomness (random.random, "
        "np.random.*) — route timing through SimClock and randomness "
        "through an explicitly seeded Random/Generator instance.  Only "
        "network/clock.py constructs a SimClock; everything else overlaps "
        "activities with Simulator.branch / fork_join.")
    example = ("import time\n"
               "stamp = time.time()   # determinism: wall clock leaks\n"
               "                      # into simulated results\n")

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        for sf in tree.src_files:
            if sf.tree is None:
                continue
            aliases = import_aliases(sf.tree)
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call(node.func, aliases)
                if target is None:
                    continue
                yield from self._judge(sf, node, target)

    def _judge(self, sf, node: ast.Call, target: str) -> Iterator[Finding]:
        reason = BANNED_CALLS.get(target)
        if reason is not None:
            yield self.finding(
                sf, node.lineno,
                f"{reason} {target}() — all timing/entropy must flow "
                f"through the simulated clock (network/clock.SimClock) "
                f"or a seeded RNG",
                symbol=target)
            return
        if target in CLOCK_CONSTRUCTORS:
            yield self.finding(
                sf, node.lineno,
                "a second clock forks simulated time — use "
                "Simulator.branch/fork_join",
                symbol=target)
            return
        if target in SEED_REQUIRED:
            if not node.args and not node.keywords:
                yield self.finding(
                    sf, node.lineno,
                    f"unseeded {target}() draws OS entropy — pass an "
                    f"explicit seed so runs replay deterministically",
                    symbol=target)
            return
        for module in GLOBAL_RNG_MODULES:
            prefix = module + "."
            if target.startswith(prefix) and "." not in target[len(prefix):]:
                yield self.finding(
                    sf, node.lineno,
                    f"{target}() uses the interpreter-global RNG — thread "
                    f"a seeded random.Random / numpy Generator instead",
                    symbol=target)
                return
