"""Tests of the benchmark harness itself (``pytest bench/``).

Not part of tier-1 (``testpaths`` is ``tests``): the smoke run starts twenty
interpreters.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare, run, trace, worker, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.02", "--seconds", "1"]


def git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of everything: (stdout, seconds, out dir, git diff)."""
    out = tmp_path_factory.mktemp("bench-out")
    before = git_status()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *SMOKE,
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    seconds = time.monotonic() - start
    assert done.returncode == 0, done.stdout
    return done.stdout, seconds, out, (before, git_status())


def test_smoke_is_quick_and_names_match_benchmark_json(smoke):
    stdout, seconds, _, _ = smoke
    assert seconds < 60
    lines = stdout.splitlines()
    headers = [line.split()[1] for line in lines if line.startswith("== ")]
    names = [w["name"] for w in SPEC["workloads"]]
    assert headers == [n for n in names for _ in range(2)]
    results = [json.loads(line) for line in lines
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(names)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for untraced, traced in zip(results[0::2], results[1::2]):
        assert untraced["correct"] and traced["correct"]
        assert untraced["failed"] == 0 and untraced["attempted"] >= 1
        assert list(untraced["metrics"]) == end_to_end
        assert list(traced["metrics"]) == per_layer
        for spec in SPEC["end_to_end"]:
            metric = untraced["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"] and metric["value"] > 0
    # the human-readable part names every metric too
    for name in end_to_end + per_layer + ["failed_ops_pct"]:
        assert any(line.split()[:1] == [name] for line in lines), name


def test_a_run_changes_no_tracked_file(smoke):
    before, after = smoke[3]
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_result_files_feed_compare(smoke):
    out = smoke[2]
    rows = compare.compare(out, out)
    assert len(rows) == len(SPEC["workloads"]) * (len(SPEC["end_to_end"]) + 1)
    # a single run against itself: same medians, so nothing can be worse
    assert {r["verdict"] for r in rows} <= {"within", "unresolved"}
    spans = json.loads((out / "farm_sweep.spans.json").read_text())
    assert set(spans[0]) >= {"name", "layer", "start", "end", "parent", "op"}
    assert any(s["layer"] == trace.HARNESS for s in spans)


def test_seed_determines_the_inputs():
    for wl in workloads.WORKLOADS.values():
        one = workloads.digest(wl.generate(1, 0.02))
        assert one == workloads.digest(wl.generate(1, 0.02))
        assert one != workloads.digest(wl.generate(2, 0.02))
        assert one != workloads.digest(wl.generate(1, 0.02, variant=1))


def test_same_seed_repeats_exact_counts():
    def traced(seed):
        return run.run_worker("farm_sweep", seed, 0.2, 0.02, traced=True)

    first, again, other = traced(1), traced(1), traced(2)
    assert first["input_digest"] == again["input_digest"]
    assert first["exact_counts"][0] == again["exact_counts"][0]
    assert first["fingerprints"][0] == again["fingerprints"][0]
    assert first["exact_counts"][0][
        "farm.queue_service.FrameQueueService.lease"]
    assert first["input_digest"] != other["input_digest"]


def test_self_time_arithmetic():
    # (target, start, end, value) as recorded: in order of *end*; times in ns
    recorded = [
        (1, 20, 30, None),     # first grandchild
        (1, 30, 45, None),     # its sibling, starting where it ended
        (0, 10, 60, None),     # their parent
        (2, 70, 70, None),     # zero-length sibling of that parent
        (9, 0, 100, 7),        # the root span of op 7
        (0, 200, 230, None),   # a set-up span outside any op
    ]
    spans = trace.nest(recorded)
    assert [s[:4] for s in spans] == [
        (9, 0, 100, -1), (0, 10, 60, 0), (1, 20, 30, 1), (1, 30, 45, 1),
        (2, 70, 70, 0), (0, 200, 230, -1)]
    assert trace.self_times(spans) == [50, 25, 10, 15, 0, 30]
    assert trace.op_of(spans, root_target=9) == [7, 7, 7, 7, 7, -1]
    # self times of a tree add up to its root's duration
    assert sum(trace.self_times(spans)[:5]) == 100


def test_wrong_reference_image_fails_the_op(monkeypatch, capsys):
    def wrong(mesh, camera_node, width, height):
        from repro.render.framebuffer import FrameBuffer
        return FrameBuffer(width, height)

    def in_process(workload, seed, seconds, scale, traced, spans=None):
        return worker.run_round(workload, seed, seconds, scale, traced,
                                spawned_at=time.time())

    monkeypatch.setattr(workloads, "reference_frame", wrong)
    monkeypatch.setattr(run, "run_worker", in_process)
    code = run.main(["--workload", "thin_dense", "--trace", "0", *SMOKE])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert result["failed"] <= result["attempted"]


def test_tracer_restores_every_patched_attribute():
    importlib.import_module("repro")
    held = {}
    for target in trace.TARGETS:
        module = importlib.import_module(target.module)
        owner = getattr(module, target.cls) if target.cls else module
        held[(target.module, target.cls, target.attr)] = (
            owner, vars(owner)[target.attr])
    tracer = trace.Tracer()
    with tracer:
        patched = tracer.patched()
        assert len(patched) >= len(trace.TARGETS)
        for (_, _, attr), (owner, original) in held.items():
            assert vars(owner)[attr] is not original
    assert tracer.patched() == []
    for (_, _, attr), (owner, original) in held.items():
        assert vars(owner)[attr] is original
    for owner, attr in patched:
        assert not hasattr(vars(owner)[attr], "__wrapped__")
