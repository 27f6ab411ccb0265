"""Every story example asserts its own flight-recorder dump.

Each story example declares what its dump must show as a module-level
``STORY`` and calls :func:`repro.obs.assert_story` on the dump it has
just written.  Here each example runs in-process and must exit 0; then
every expectation in its ``STORY`` is broken one at a time on a copy of
the real dump — an event dropped, two events swapped, a forbidden event
appended, a detail edited — and ``assert_story`` must turn red on each.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs import assert_story

ROOT = Path(__file__).resolve().parents[1]

#: story example -> the reason its dump is written under
STORIES = {
    "autoscaled_session": "autoscaled-session",
    "multitenant_grid": "multitenant-grid",
    "render_farm": "render-farm",
    "farm_fairness": "farm-fairness",
    "sanitized_chaos": "sanitized-chaos",
    "monitored_session": "monitored-session",
}

#: (story, kind) -> an edit of a real detail that breaks ``where[kind]``
DETAIL_EDITS = {
    ("render_farm", "farm:requeue"): ("galleon-anim#1:", "galleon-anim#2:"),
    ("render_farm", "farm:job-done"): ("missing []", "missing [3]"),
    ("farm_fairness", "farm:lease"): ("priority 1", "priority 0"),
}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = {name: _load(ROOT / "examples" / f"{name}.py") for name in STORIES}


@pytest.fixture(scope="module")
def dumps(tmp_path_factory) -> dict:
    """Run every story example once; its dump, keyed by example."""
    out = {}
    for name, module in MODULES.items():
        path = tmp_path_factory.mktemp(name) / f"{name}-dump.json"
        argv = sys.argv
        sys.argv = [f"{name}.py", str(path)]
        try:
            assert module.main() == 0, f"{name} exited nonzero"
        finally:
            sys.argv = argv
        out[name] = json.loads(path.read_text())
    return out


# --------------------------------------------------------------------------
# mutations: each returns a broken copy of the events
# --------------------------------------------------------------------------


def _matches(step):
    kind, test = step if isinstance(step, tuple) else (step, None)
    return lambda e: e["kind"] == kind and (test is None or test(e["detail"]))


def _drop(step):
    match = _matches(step)
    return lambda events: [e for e in events if not match(e)]


def _swap(first, then):
    """Move every event ``first`` matches after the last one ``then`` does."""
    moved, after = _matches(first), _matches(then)

    def mutate(events):
        last = max(i for i, e in enumerate(events) if after(e))
        kept = [e for e in events[:last + 1] if not moved(e)]
        return kept + [e for e in events[:last + 1] if moved(e)] \
            + events[last + 1:]
    return mutate


def _drop_one(kind):
    def mutate(events):
        last = max(i for i, e in enumerate(events) if e["kind"] == kind)
        return events[:last] + events[last + 1:]
    return mutate


def _add_one(kind):
    return lambda events: events + [{"time": events[-1]["time"],
                                     "kind": kind, "detail": ""}]


def _append(kind):
    return _add_one(f"{kind}mutant" if kind.endswith(":") else kind)


def _edit(kind, old, new):
    def mutate(events):
        events = copy.deepcopy(events)
        event = next(e for e in events
                     if e["kind"] == kind and old in e["detail"])
        event["detail"] = event["detail"].replace(old, new)
        return events
    return mutate


def mutations(name: str, story: dict):
    """``(id, kind the failure must name, mutate)`` per expectation."""
    order = story.get("order", ())
    kinds = [s if isinstance(s, str) else s[0] for s in order]
    for i, step in enumerate(order):
        yield f"order[{i}]-drop", kinds[i], _drop(step)
    for i, (first, then) in enumerate(zip(order, order[1:])):
        if first != then:
            yield f"order[{i}]-swap", kinds[i + 1], _swap(first, then)
    for kind in story.get("counts", {}):
        yield f"counts-{kind}-drop", kind, _drop_one(kind)
        yield f"counts-{kind}-add", kind, _add_one(kind)
    for kind in story.get("absent", ()):
        yield f"absent-{kind}-append", kind, _append(kind)
    for kind in story.get("where", {}):
        old, new = DETAIL_EDITS[name, kind]
        yield f"where-{kind}-edit", kind, _edit(kind, old, new)


CASES = [pytest.param(name, kind, mutate, id=f"{name}-{case}")
         for name, module in MODULES.items()
         for case, kind, mutate in mutations(name, module.STORY)]


# --------------------------------------------------------------------------
# the stories
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", STORIES)
def test_story_example_exits_zero_and_its_dump_holds(dumps, name):
    dump = dumps[name]
    assert dump["reason"] == STORIES[name]
    assert_story(dump, **MODULES[name].STORY)


@pytest.mark.parametrize("name,kind,mutate", CASES)
def test_mutated_dump_turns_the_story_red(dumps, name, kind, mutate):
    dump = dumps[name]
    broken = {**dump, "events": mutate(dump["events"])}
    assert broken["events"] != dump["events"], "the mutation changed nothing"
    with pytest.raises(AssertionError) as err:
        assert_story(broken, **MODULES[name].STORY)
    failed = str(err.value).split("; the dump holds")[0]
    assert repr(kind) in failed, err.value


def test_every_where_predicate_has_a_detail_edit():
    wanted = {(name, kind) for name, module in MODULES.items()
              for kind in module.STORY.get("where", {})}
    assert wanted == set(DETAIL_EDITS)


# --------------------------------------------------------------------------
# assert_story on hand-written dumps
# --------------------------------------------------------------------------


def _dump(*events):
    """A dump of ``events``, each a kind or a ``(kind, detail)`` pair."""
    pairs = [e if isinstance(e, tuple) else (e, "") for e in events]
    return {"reason": "t", "events": [
        {"time": float(i), "kind": kind, "detail": detail}
        for i, (kind, detail) in enumerate(pairs)]}


class TestAssertStory:
    def test_an_empty_dump_is_an_error_not_a_pass(self):
        for dump in ({}, _dump()):
            with pytest.raises(AssertionError, match="empty"):
                assert_story(dump)

    def test_order_is_a_subsequence(self):
        dump = _dump("a", "x", "b", "a")
        assert_story(dump, order=("a", "b", "a"))
        with pytest.raises(AssertionError, match=r"order\[2\]: no 'a'"):
            assert_story(dump, order=("b", "a", "a"))

    def test_order_step_with_a_predicate_skips_other_details(self):
        dump = _dump(("m", "(overload)"), "alert", ("m", "(underload)"))
        assert_story(dump, order=("alert", "m"))
        with pytest.raises(AssertionError,
                           match="no 'm' matching its predicate"):
            assert_story(dump, order=("alert", ("m", lambda d: "over" in d)))

    def test_count_mismatch_names_the_kind(self):
        dump = _dump("a", "a", "b")
        assert_story(dump, counts={"a": 2, "z": 0})
        with pytest.raises(AssertionError, match="counts: 1 'b', expected 2"):
            assert_story(dump, counts={"b": 2})

    def test_absent_with_a_trailing_colon_is_a_prefix(self):
        dump = _dump("farm:lease", "sanitizer:clock")
        assert_story(dump, absent=("sanitizer", "farm"))
        with pytest.raises(AssertionError, match="sanitizer:clock"):
            assert_story(dump, absent=("sanitizer:",))
        with pytest.raises(AssertionError, match="absent: 'farm:lease'"):
            assert_story(dump, absent=("farm:lease",))

    def test_where_checks_every_event_of_the_kind(self):
        dump = _dump(("lease", "priority 1"), ("lease", "priority 0"))
        with pytest.raises(AssertionError, match="priority 0"):
            assert_story(dump, where={"lease": lambda d: "1" in d})
        assert_story(dump, where={"other": lambda d: False})

    def test_the_message_lists_the_kinds_it_saw(self):
        with pytest.raises(AssertionError, match=r"holds \{'a': 1\}"):
            assert_story(_dump("a"), order=("b",))
