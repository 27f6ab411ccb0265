"""Unit tests for ravelint: each rule on seeded fixture trees.

Every rule gets at least one fixture that *must* flag and one that must
pass, plus framework-level tests for suppression comments, the baseline
round-trip, reporters and the CLI.  Fixture sources live inside
triple-quoted strings so their deliberately-broken metric names and
kinds stay invisible to the real tree's own lint run.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    BASELINE_NAME,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)

# referenced by assertions below; the fixture trees, not this repo,
# register them (hence the suppressions)
GHOST_METRIC = "rave_fx_ghost_total"    # ravelint: ignore[metric-registry]
ORPHAN_METRIC = "rave_fx_orphan"        # ravelint: ignore[metric-registry]
TYPO_METRIC = "rave_fx_good_totl"       # ravelint: ignore[metric-registry]


VOCAB_FIXTURE = """
EVENT_PING = "ping"
EVENT_FAULT_PREFIX = "fault:"
EVENT_KINDS = frozenset({EVENT_PING})
EVENT_PREFIXES = frozenset({EVENT_FAULT_PREFIX})
ALERT_HOT = "hot"
ALERT_KINDS = frozenset({ALERT_HOT})
TELEMETRY_TICK = "tick"
TELEMETRY_EVENT_KINDS = frozenset({TELEMETRY_TICK})
KNOWN_KINDS = EVENT_KINDS | ALERT_KINDS | TELEMETRY_EVENT_KINDS
FX_DERIVED = "rave_fx_derived"
"""


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def lint(root: Path, *rules: str, baseline: Path | None = None):
    return run_lint(root=root, rules=list(rules) or None,
                    baseline_path=baseline)


def symbols(result) -> set[str]:
    return {f.symbol for f in result.findings}


# -- determinism ----------------------------------------------------------------------


class TestDeterminismRule:
    def test_flags_wall_clocks_and_unseeded_rngs(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/sim.py": """
            import os
            import random
            import time
            import uuid
            import numpy as np
            from time import monotonic as mono

            STAMP = time.time()
            TICK = mono()
            TOKEN = uuid.uuid4()
            NOISE = os.urandom(8)
            rng = random.Random()
            gen = np.random.default_rng()

            def jitter(items):
                random.shuffle(items)
                return np.random.random()
            """})
        result = lint(root, "determinism")
        assert symbols(result) == {
            "time.time", "time.monotonic", "uuid.uuid4", "os.urandom",
            "random.Random", "numpy.random.default_rng",
            "random.shuffle", "numpy.random.random",
        }
        assert all(f.severity == "error" for f in result.findings)

    def test_passes_seeded_rngs_and_local_generators(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/sim.py": """
            import random
            import numpy as np

            rng = random.Random(42)
            gen = np.random.default_rng(7)

            def draw(local_rng):
                return local_rng.random() + gen.normal()
            """})
        assert not lint(root, "determinism").findings

    def test_tests_and_benchmarks_are_exempt(self, tmp_path):
        root = make_tree(tmp_path, {"tests/test_wall.py": """
            import time

            def test_elapsed():
                assert time.time() > 0
            """})
        assert not lint(root, "determinism").findings

    def test_flags_a_second_clock_outside_network_clock(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/services/farmish.py": """
            from repro.network.clock import SimClock

            def pull(sim):
                real = sim.clock
                sim.clock = SimClock(real.now)
            """})
        result = lint(root, "determinism")
        assert symbols(result) == {"repro.network.clock.SimClock"}
        assert "Simulator.branch" in result.findings[0].message

    def test_clock_module_and_branch_users_pass(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/network/clock.py": """
                class SimClock:
                    pass

                class Simulator:
                    def __init__(self):
                        self.clock = SimClock()
                """,
            "src/repro/services/farmish.py": """
                from repro.network.clock import SimClock, Simulator

                def pull(sim: Simulator, clock: SimClock):
                    with sim.branch() as branch:
                        clock.advance(1.0)
                    return branch.elapsed
                """})
        assert not lint(root, "determinism").findings


# -- metric-registry ------------------------------------------------------------------


class TestMetricRegistryRule:
    FILES = {
        "src/repro/obs/vocab.py": VOCAB_FIXTURE,
        "src/repro/services/monitor.py": """
            from repro.obs.vocab import FX_DERIVED

            GRID_AGGREGATES = (
                ("render", "rave_fx_good_total", FX_DERIVED, "sum"),
            )
            """,
        "src/repro/svc.py": """
            class Service:
                def tick(self, metrics):
                    metrics.counter("rave_fx_good_total", "frames").inc()
                    metrics.gauge("rave_fx_orphan", "never read").set(1)
                    metrics.histogram("rave_fx_hist", "latency").observe(2)
            """,
        "tests/test_svc.py": """
            def test_scrape(snap):
                assert snap["rave_fx_good_total"] == 1
                assert snap["rave_fx_hist_count"] == 1
                assert snap["rave_fx_derived"] > 0
                assert snap["rave_fx_ghost_total"] == 0
            """,
    }

    def test_consumed_never_registered_is_an_error(self, tmp_path):
        result = lint(make_tree(tmp_path, self.FILES), "metric-registry")
        ghosts = [f for f in result.findings if f.symbol == GHOST_METRIC]
        assert len(ghosts) == 1
        assert ghosts[0].severity == "error"
        assert ghosts[0].path == "tests/test_svc.py"

    def test_registered_never_consumed_is_a_warning(self, tmp_path):
        result = lint(make_tree(tmp_path, self.FILES), "metric-registry")
        orphans = [f for f in result.findings if f.symbol == ORPHAN_METRIC]
        assert len(orphans) == 1
        assert orphans[0].severity == "warning"
        assert orphans[0].path == "src/repro/svc.py"

    def test_flattened_and_derived_names_resolve(self, tmp_path):
        result = lint(make_tree(tmp_path, self.FILES), "metric-registry")
        # the _count lookup maps back to the histogram family; the
        # derived name is published by the monitor's table
        assert symbols(result) == {GHOST_METRIC, ORPHAN_METRIC}

    def test_monitor_table_sources_must_be_registered(self, tmp_path):
        files = dict(self.FILES)
        files["src/repro/services/monitor.py"] = """
            from repro.obs.vocab import FX_DERIVED

            GRID_AGGREGATES = (
                ("render", "rave_fx_good_totl", FX_DERIVED, "sum"),
            )
            """
        result = lint(make_tree(tmp_path, files), "metric-registry")
        typo = [f for f in result.findings if f.symbol == TYPO_METRIC]
        assert len(typo) == 1
        assert typo[0].severity == "error"
        assert typo[0].path == "src/repro/services/monitor.py"

    def test_prefix_probe_consumes_matching_families(self, tmp_path):
        files = dict(self.FILES)
        files["tests/test_svc.py"] = """
            def test_scrape(snap):
                families = [k for k in snap if k.startswith("rave_fx_")]
                assert families
            """
        result = lint(make_tree(tmp_path, files), "metric-registry")
        assert symbols(result) == set()


# -- event-kind -----------------------------------------------------------------------


class TestEventKindRule:
    def test_flags_unknown_kinds_everywhere(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/obs/vocab.py": VOCAB_FIXTURE,
            "src/repro/emit.py": """
            from repro.obs.rules import Alert

            def run(obs, alert, home_grown_kind):
                obs.recorder.note("bogus", time=0.0)
                obs.recorder.note(home_grown_kind, time=0.0)
                obs.recorder.note("ping" if alert else "frosty", time=0.0)
                Alert(rule="r", kind="cold", service="s", since=0,
                      last_time=0, value=0, severity="warning")
                if alert.kind == "chilly":
                    return True
            """})
        result = lint(root, "event-kind")
        assert symbols(result) == {"bogus", "home_grown_kind", "frosty",
                                   "cold", "chilly"}
        assert all(f.severity == "error" for f in result.findings)

    def test_passes_vocabulary_members_and_prefixes(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/obs/vocab.py": VOCAB_FIXTURE,
            "src/repro/emit.py": """
            from repro.obs.rules import Alert
            from repro.obs.vocab import EVENT_FAULT_PREFIX, EVENT_PING

            def run(obs, alert, kind):
                obs.recorder.note("ping", time=0.0)
                obs.recorder.note(EVENT_PING, time=0.0)
                obs.recorder.note("fault:crash", time=0.0)
                obs.recorder.note(EVENT_FAULT_PREFIX + kind, time=0.0)
                obs.recorder.note(f"fault:{kind}", time=0.0)
                obs.recorder.note(EVENT_PING if kind else "fault:x",
                                  time=0.0)
                obs.telemetry.event("tick", 0.0, "detail")
                Alert(rule="r", kind="hot", service="s", since=0,
                      last_time=0, value=0, severity="warning")
                return alert.kind == "hot"
            """})
        assert not lint(root, "event-kind").findings

    def test_missing_vocabulary_module_is_itself_a_finding(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/emit.py": """
            def run(obs):
                obs.recorder.note("anything", time=0.0)
            """})
        result = lint(root, "event-kind")
        assert symbols(result) == {"missing-vocab"}


# -- protocol-symmetry ----------------------------------------------------------------


class TestProtocolSymmetryRule:
    def test_flags_orphan_framers_and_lonely_flags(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/services/protocol.py": """
            FLAG_A = 0x0001
            FLAG_LONELY = 0x0002

            def frame_ping(payload):
                return bytes([FLAG_A])

            def unframe_ping(data):
                return data[0] & FLAG_A

            def frame_orphan(payload):
                return payload

            def unframe_widow(data):
                return data
            """})
        result = lint(root, "protocol-symmetry")
        assert symbols(result) == {"frame_orphan", "unframe_widow",
                                   "FLAG_LONELY"}

    def test_passes_symmetric_modules(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/services/protocol.py": """
            FLAG_A = 0x0001

            def frame_ping(payload):
                return bytes([FLAG_A])

            def unframe_ping(data):
                return data[0] & FLAG_A
            """})
        assert not lint(root, "protocol-symmetry").findings

    def test_flag_used_on_one_side_only(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/services/protocol.py": """
            FLAG_ONLY_SET = 0x0001

            def frame_ping(payload):
                return bytes([FLAG_ONLY_SET])

            def unframe_ping(data):
                return data
            """})
        result = lint(root, "protocol-symmetry")
        assert symbols(result) == {"FLAG_ONLY_SET"}
        assert "never produced" not in result.findings[0].message
        assert "never checked" in result.findings[0].message


# -- api-surface ----------------------------------------------------------------------


class TestApiSurfaceRule:
    def test_stale_export_is_an_error(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/mod.py": """
            __all__ = ["real", "ghost"]

            def real():
                return 1
            """})
        result = lint(root, "api-surface")
        assert symbols(result) == {"ghost"}
        assert result.findings[0].severity == "error"

    def test_init_reexport_missing_from_all_is_a_warning(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/pkg/__init__.py": """
            from repro.mod import forgotten, listed

            __all__ = ["listed"]
            """})
        result = lint(root, "api-surface")
        assert symbols(result) == {"forgotten"}
        assert result.findings[0].severity == "warning"

    def test_clean_module_passes(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/mod.py": """
            import os

            __all__ = ["real", "os"]

            def real():
                return 1
            """})
        assert not lint(root, "api-surface").findings

    LAZY_INIT = """
        from repro._lazy import lazy_exports

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.pkg.mod": ("Widget", "make"),
            %s
        })
        """
    LAZY_MOD = """
        from repro.errors import RaveError as Widget

        def make():
            return Widget()
        """

    def lazy_tree(self, tmp_path, entry=""):
        return make_tree(tmp_path, {
            "src/repro/pkg/__init__.py": self.LAZY_INIT % entry,
            "src/repro/pkg/mod.py": self.LAZY_MOD,
            "src/repro/pkg/sub/__init__.py": "Gadget = 1\n"})

    def test_lazy_table_naming_real_bindings_passes(self, tmp_path):
        root = self.lazy_tree(tmp_path, '"repro.pkg.sub": ("Gadget",),')
        assert not lint(root, "api-surface").findings

    def test_lazy_entry_naming_a_missing_module_is_an_error(self, tmp_path):
        root = self.lazy_tree(tmp_path, '"repro.pkg.gone": ("Ghost",),')
        result = lint(root, "api-surface")
        assert symbols(result) == {"Ghost"}
        assert result.findings[0].severity == "error"
        assert "not a module under src/repro" in result.findings[0].message

    def test_lazy_entry_naming_an_unbound_name_is_an_error(self, tmp_path):
        root = self.lazy_tree(tmp_path, '"repro.pkg.mod": ("Gizmo",),')
        result = lint(root, "api-surface")
        assert symbols(result) == {"Gizmo"}
        assert result.findings[0].severity == "error"
        assert "never binds it" in result.findings[0].message


# -- lifecycle ------------------------------------------------------------------------


class TestLifecycleRule:
    def test_unguarded_state_assignment_is_an_error(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/farm.py": """
            FRAME_PENDING = "pending"
            FRAME_LEASED = "leased"
            FRAME_DONE = "done"

            class Queue:
                def complete(self, record):
                    record.state = FRAME_DONE
            """})
        result = lint(root, "lifecycle")
        assert "frame-lease:unguarded:done" in symbols(result)
        unguarded = [f for f in result.findings
                     if f.symbol == "frame-lease:unguarded:done"]
        assert unguarded[0].severity == "error"
        assert "record.state" in unguarded[0].message

    def test_illegal_transition_is_an_error(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/farm.py": """
            FRAME_PENDING = "pending"
            FRAME_LEASED = "leased"
            FRAME_DONE = "done"

            class Queue:
                def zombie(self, record):
                    if record.state == FRAME_DONE:
                        record.state = FRAME_LEASED
            """})
        result = lint(root, "lifecycle")
        assert "frame-lease:illegal:done->leased" in symbols(result)

    def test_guarded_legal_transitions_pass(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/farm.py": """
            FRAME_PENDING = "pending"
            FRAME_LEASED = "leased"
            FRAME_DONE = "done"

            class Queue:
                def lease(self, record):
                    if record.state == FRAME_PENDING:
                        record.state = FRAME_LEASED

                def complete(self, record):
                    if record.state != FRAME_LEASED:
                        return
                    record.state = FRAME_DONE

                def requeue(self, record):
                    if record.state == FRAME_LEASED:
                        record.state = FRAME_PENDING

                def finished(self, record):
                    return record.state == FRAME_DONE
            """})
        assert not lint(root, "lifecycle").findings

    def test_raw_literal_at_a_state_site_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/farm.py": """
            FRAME_PENDING = "pending"
            FRAME_LEASED = "leased"
            FRAME_DONE = "done"

            class Queue:
                def complete(self, record):
                    if record.state == "leased":
                        record.state = FRAME_DONE
            """})
        result = lint(root, "lifecycle")
        assert "frame-lease:literal:leased" in symbols(result)

    def test_unreachable_and_unhandled_states_warn(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/farm.py": """
            FRAME_PENDING = "pending"

            def poke(record):
                return record.queued and FRAME_PENDING
            """})
        result = lint(root, "lifecycle")
        syms = symbols(result)
        assert "frame-lease:unreachable:leased" in syms
        assert "frame-lease:unreachable:done" in syms
        assert "frame-lease:unhandled:pending" in syms
        assert all(f.severity == "warning" for f in result.findings)

    def test_inactive_chart_stays_silent(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/other.py": """
            def helper(x):
                return x + 1
            """})
        assert not lint(root, "lifecycle").findings

    def test_write_once_chart_forbids_reassignment(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/grid.py": """
            EVENT_ADMIT = "admit"
            EVENT_QUEUE = "queue"
            EVENT_REJECT = "reject"
            EVENT_SHED = "shed"
            EVENT_RESTORE = "restore"

            class Grid:
                def flip(self, decision):
                    decision.outcome = EVENT_ADMIT

                def make(self):
                    return dict(outcome="admit")
            """})
        result = lint(root, "lifecycle")
        assert "admission:reassigned" in symbols(result)
        assert "admission:literal:admit" in symbols(result)


# -- daemon-race ----------------------------------------------------------------------


class TestDaemonRaceRule:
    CONTRACT_FILE = "src/repro/farm/queue_service.py"

    def test_mutation_outside_transition_methods_is_an_error(self, tmp_path):
        root = make_tree(tmp_path, {self.CONTRACT_FILE: """
            class FrameQueueService:
                def __init__(self):
                    self._job_pending = {}

                def submit(self, job):
                    self._job_pending[job] = []

                def rogue(self, job):
                    self._job_pending.pop(job)
            """})
        result = lint(root, "daemon-race")
        assert symbols(result) == {"FrameQueueService.rogue:_job_pending"}
        assert "not a declared transition method" \
            in result.findings[0].message

    def test_inline_callback_mutation_is_an_error(self, tmp_path):
        root = make_tree(tmp_path, {self.CONTRACT_FILE: """
            class FrameQueueService:
                def __init__(self, sim):
                    self._job_pending = {}
                    self.sim = sim

                def submit(self, job):
                    self._job_pending[job] = []

                def start(self):
                    self.sim.schedule(1.0,
                                      lambda: self._job_pending.clear())
            """})
        result = lint(root, "daemon-race")
        assert symbols(result) == {"FrameQueueService.start:_job_pending"}
        assert "schedule callback" in result.findings[0].message

    def test_callbacks_routing_through_transitions_pass(self, tmp_path):
        root = make_tree(tmp_path, {self.CONTRACT_FILE: """
            class FrameQueueService:
                def __init__(self, sim):
                    self._job_pending = {}
                    self.sim = sim

                def submit(self, job):
                    self._job_pending[job] = []

                def start(self):
                    self.sim.schedule(1.0, lambda: self.submit("tick"))
            """})
        assert not lint(root, "daemon-race").findings

    def test_a_ticker_callback_is_a_schedule_callback(self, tmp_path):
        root = make_tree(tmp_path, {self.CONTRACT_FILE: """
            from repro.network.clock import Ticker

            class FrameQueueService:
                def __init__(self, sim):
                    self._job_pending = {}
                    self._ticker = Ticker(
                        sim, 1.0, lambda: self._job_pending.clear())

                def submit(self, job):
                    self._job_pending[job] = []

                def rogue_start(self, sim):
                    Ticker(sim, period=1.0,
                           callback=lambda: self._job_pending.pop(1))

                def start(self, sim):
                    Ticker(sim, 1.0, self.submit)
            """})
        result = lint(root, "daemon-race")
        assert symbols(result) == {
            "FrameQueueService.__init__:_job_pending",
            "FrameQueueService.rogue_start:_job_pending"}
        assert all("schedule callback" in f.message
                   for f in result.findings)

    def test_undeclared_shared_state_needs_two_callbacks(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/collect.py": """
            class Collector:
                def start(self, sim):
                    sim.schedule(1.0, lambda: self._events.append(1))

                def drain(self, sim):
                    sim.schedule_at(2.0, lambda: self._events.pop())

            class Lonely:
                def start(self, sim):
                    sim.schedule(1.0, lambda: self._ticks.append(1))
            """})
        result = lint(root, "daemon-race")
        assert symbols(result) == {"Collector:_events"}
        assert "SharedStateContract" in result.findings[0].message

    def test_self_rescheduling_tick_counts_once(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/collect.py": """
            class Ticker:
                def start(self, sim):
                    def tick():
                        self._handle = sim.schedule(1.0, tick)

                    self._handle = sim.schedule(1.0, tick)
            """})
        assert not lint(root, "daemon-race").findings


# -- label-cardinality ----------------------------------------------------------------


class TestLabelCardinalityRule:
    def test_interpolated_and_named_unbounded_labels_flag(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/svc.py": """
            class S:
                def tick(self, metrics, frame, host):
                    metrics.counter("rave_fx_frames_total", "per frame",
                                    frame=f"frame-{frame}").inc()
                    metrics.gauge("rave_fx_load", "load", host=host).set(1)
            """})
        result = lint(root, "label-cardinality")
        assert symbols(result) == {"rave_fx_frames_total:frame",
                                   "rave_fx_load:host"}
        assert all(f.severity == "error" for f in result.findings)

    def test_local_variable_propagation_catches_fstrings(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/svc.py": """
            class S:
                def tick(self, metrics, key):
                    label = f"{key[0]}-{key[1]}"
                    metrics.counter("rave_fx_bytes_total", "bytes",
                                    path=label).inc()
            """})
        result = lint(root, "label-cardinality")
        assert symbols(result) == {"rave_fx_bytes_total:path"}
        assert "f-string" in result.findings[0].message

    def test_declared_bounded_keys_are_exempt(self, tmp_path):
        root = make_tree(tmp_path, {
            "src/repro/obs/vocab.py": VOCAB_FIXTURE
            + 'BOUNDED_LABEL_KEYS = frozenset({"link"})\n',
            "src/repro/svc.py": """
            class S:
                def tick(self, metrics, key):
                    label = f"{key[0]}-{key[1]}"
                    metrics.counter("rave_fx_bytes_total", "bytes",
                                    link=label).inc()
            """})
        assert not lint(root, "label-cardinality").findings

    def test_closed_set_labels_and_metadata_kwargs_pass(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/svc.py": """
            class S:
                def tick(self, metrics, tenant, reason):
                    metrics.counter("rave_fx_sheds_total",
                                    help="why sessions shed",
                                    tenant=tenant, reason=reason).inc()
                    metrics.histogram("rave_fx_wait_seconds", "waits",
                                      buckets=(0.1, 1.0),
                                      tenant="acme").observe(1.0)
            """})
        assert not lint(root, "label-cardinality").findings

    def test_suppression_and_baseline_round_trip(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/svc.py": """
            class S:
                def tick(self, metrics, frame, host):
                    metrics.counter("rave_fx_a_total", "a",
                                    frame=str(frame)).inc()  # ravelint: ignore[label-cardinality]
                    metrics.counter("rave_fx_b_total", "b",
                                    host=host).inc()
            """})
        baseline = root / BASELINE_NAME
        first = lint(root, "label-cardinality", baseline=baseline)
        assert len(first.suppressed) == 1
        assert symbols(first) == {"rave_fx_b_total:host"}

        write_baseline(baseline, first.findings)
        second = lint(root, "label-cardinality", baseline=baseline)
        assert not second.findings
        assert len(second.baselined) == 1
        assert len(second.suppressed) == 1


# -- framework: suppression, baseline, parse errors -----------------------------------


class TestSuppression:
    SOURCE = """
        import time

        NOW = time.time()  # ravelint: ignore[determinism]
        THEN = time.time()  # ravelint: ignore
        AGAIN = time.time()  # ravelint: ignore[some-other-rule]
        """

    def test_ignore_comments_partition_findings(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/sim.py": self.SOURCE})
        result = lint(root, "determinism")
        assert len(result.suppressed) == 2     # targeted + bare ignore
        assert len(result.findings) == 1       # wrong rule id still fires
        assert result.findings[0].line == 6


class TestBaseline:
    def test_round_trip_grandfathers_existing_findings(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/sim.py": """
            import time

            NOW = time.time()
            """})
        baseline = root / BASELINE_NAME
        first = lint(root, "determinism", baseline=baseline)
        assert len(first.findings) == 1

        payload = write_baseline(baseline, first.findings)
        assert payload["version"] == 1
        assert load_baseline(baseline) == {first.findings[0].fingerprint}

        second = lint(root, "determinism", baseline=baseline)
        assert not second.findings
        assert len(second.baselined) == 1

    def test_fingerprints_survive_line_churn(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/sim.py": """
            import time

            NOW = time.time()
            """})
        baseline = root / BASELINE_NAME
        write_baseline(baseline, lint(root, "determinism").findings)
        # push the violation down ten lines; the baseline must still match
        shifted = "\n" * 10 + (root / "src/repro/sim.py").read_text()
        (root / "src/repro/sim.py").write_text(shifted)
        result = lint(root, "determinism", baseline=baseline)
        assert not result.findings
        assert len(result.baselined) == 1


class TestParseErrors:
    def test_unparseable_module_is_reported_not_fatal(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/broken.py": """
            def half(:
            """})
        result = lint(root)
        parse = [f for f in result.findings if f.rule == "parse"]
        assert len(parse) == 1
        assert parse[0].severity == "error"

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no-such-rule"):
            lint(make_tree(tmp_path, {}), "no-such-rule")


# -- reporters and CLI ----------------------------------------------------------------


@pytest.fixture
def dirty_root(tmp_path):
    return make_tree(tmp_path, {"src/repro/sim.py": """
        import time

        NOW = time.time()
        """})


class TestReporters:
    def test_text_report_lines_and_summary(self, dirty_root):
        text = render_text(lint(dirty_root, "determinism"))
        assert "src/repro/sim.py:4: error [determinism]" in text
        assert "ravelint: 1 finding(s) (1 error)" in text

    def test_json_report_shape(self, dirty_root):
        payload = json.loads(render_json(lint(dirty_root, "determinism")))
        assert payload["format"] == "ravelint-report/1"
        assert payload["summary"]["error"] == 1
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "determinism"
        assert finding["path"] == "src/repro/sim.py"


class TestCli:
    def run(self, *argv):
        from repro.__main__ import main

        return main(["lint", *argv])

    def test_exit_one_on_findings(self, dirty_root, capsys):
        assert self.run("--root", str(dirty_root)) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

    def test_exit_zero_below_fail_floor(self, dirty_root, capsys):
        # errors present, but the floor is above every severity we emit
        assert self.run("--root", str(dirty_root),
                        "--rules", "api-surface") == 0

    def test_json_format(self, dirty_root, capsys):
        assert self.run("--root", str(dirty_root), "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "ravelint-report/1"

    def test_write_baseline_then_clean(self, dirty_root, capsys):
        assert self.run("--root", str(dirty_root), "--write-baseline") == 0
        assert (dirty_root / BASELINE_NAME).is_file()
        assert self.run("--root", str(dirty_root)) == 0

    def test_list_rules(self, dirty_root, capsys):
        assert self.run("--list-rules") == 0
        out = capsys.readouterr().out
        for rule in ("determinism", "metric-registry", "event-kind",
                     "protocol-symmetry", "api-surface", "daemon-race",
                     "lifecycle", "label-cardinality"):
            assert rule in out

    def test_explain_prints_contract_and_example(self, capsys):
        assert self.run("--explain", "lifecycle") == 0
        out = capsys.readouterr().out
        assert out.startswith("lifecycle (error):")
        assert "statecharts" in out
        assert "Minimal violating example:" in out

    def test_explain_unknown_rule_fails(self, capsys):
        assert self.run("--explain", "no-such-rule") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_select_is_an_alias_for_rules(self, dirty_root, capsys):
        assert self.run("--root", str(dirty_root),
                        "--select", "determinism") == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out
        assert "[metric-registry]" not in out

    def test_ignore_drops_a_selected_rule(self, dirty_root, capsys):
        assert self.run("--root", str(dirty_root),
                        "--select", "determinism,api-surface",
                        "--ignore", "determinism") == 0
        assert "[determinism]" not in capsys.readouterr().out
