"""The repository's own tree must pass ravelint with nothing to fix.

This is the enforcement half of the invariants ``src/repro/analysis``
checks: determinism, metric producer/consumer agreement, shared kind
vocabularies, protocol symmetry and ``__all__`` hygiene.  A finding
here means either fix the code or — for a deliberate exception — add a
``# ravelint: ignore[rule-id]`` comment at the site, with a reason.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import registered_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def result():
    """One lint run over the whole tree, read by every check below."""
    return run_lint(root=REPO_ROOT)


def test_all_eight_rules_are_registered():
    assert set(registered_rules()) >= {
        "determinism", "metric-registry", "event-kind",
        "protocol-symmetry", "api-surface",
        "daemon-race", "lifecycle", "label-cardinality",
    }


def test_repository_tree_is_clean(result):
    report = "\n".join(
        f"{f.path}:{f.line}: {f.severity} [{f.rule}] {f.message}"
        for f in result.findings)
    assert not result.findings, f"unsuppressed ravelint findings:\n{report}"


def test_no_baseline_debt(result):
    """The committed baseline stays empty: new findings get fixed, not
    grandfathered."""
    assert not result.baselined
