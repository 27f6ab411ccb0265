"""ravelint: project-specific static analysis for the reproduction.

An AST-based invariant checker over the whole repository tree.  Generic
linters check style; this package checks the *contracts* the
reproduction's headline claims rest on: simulation determinism (no wall
clocks, no unseeded RNGs), metric-name agreement between producers and
consumers, shared event/alert-kind vocabularies, wire-protocol
frame/unframe symmetry, and ``__all__`` drift.

Run it as ``python -m repro lint`` (see ``docs/ANALYSIS.md``) or use the
importable API::

    from repro.analysis import run_lint

    result = run_lint()                       # whole repo, all rules
    assert not result.findings

Checkers are pluggable: subclass :class:`Checker`, decorate with
:func:`register`, import the module from
:mod:`repro.analysis.checkers`.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.core": ("BASELINE_NAME", "Checker", "Finding",
                            "LintResult", "SourceFile", "SourceTree",
                            "default_root", "load_baseline", "load_tree",
                            "register", "registered_rules", "run_lint",
                            "write_baseline"),
    "repro.analysis.reporters": ("render_json", "render_text"),
})
