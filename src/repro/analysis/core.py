"""ravelint core: source tree loading, findings, suppressions, baseline.

``ravelint`` is a project-specific static-analysis pass over the whole
repository tree (``src/repro`` plus the ``tests``/``benchmarks``
harnesses), built on :mod:`ast`.  Unlike a generic linter it checks
*cross-component contracts*: wall-clock bans that keep the simulation
deterministic, metric names that must agree between producers and
consumers, event/alert-kind vocabularies, protocol frame/unframe
symmetry, and ``__all__`` drift.

The moving parts:

- :class:`Finding` — one diagnostic, anchored at a file/line, with a
  stable ``fingerprint`` (rule + path + symbol) that survives line-number
  churn so baselines stay valid across unrelated edits;
- :class:`Checker` — base class; subclasses set ``rule``/``severity``
  and implement :meth:`Checker.check` over a :class:`SourceTree`
  (cross-file analysis, not per-file only);
- suppressions — a ``# ravelint: ignore[rule-id]`` comment on the
  flagged line silences that rule there (bare ``ignore`` silences all);
- baseline — a committed JSON file of fingerprints for grandfathered
  findings; baselined findings are reported separately and never fail
  the run;
- :func:`run_lint` — load tree, run checkers, partition findings.

The package deliberately imports nothing from the rest of ``repro`` (it
analyses the code as text) and nothing outside the stdlib.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: severity ladder; ``run_lint`` callers fail on a configurable floor
SEVERITIES = ("info", "warning", "error")
SEVERITY_ORDER = {name: rank for rank, name in enumerate(SEVERITIES)}

#: default name of the committed baseline file, relative to the root
BASELINE_NAME = "lint-baseline.json"

_SUPPRESS_RE = re.compile(r"#\s*ravelint:\s*ignore(?:\[([^\]]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation anchored at a file and line."""

    rule: str
    severity: str
    path: str           # root-relative posix path
    line: int
    message: str
    #: stable anchor (metric name, export, function...) for fingerprints
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule}::{self.path}::{self.symbol or self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One parsed module: raw text, split lines and its AST (or error)."""

    path: Path
    rel: str            # posix path relative to the lint root
    role: str           # "src" | "tests" | "benchmarks"
    text: str
    lines: list[str]
    tree: ast.Module | None
    error: str | None = None

    def suppresses(self, line: int, rule: str) -> bool:
        """True when ``line`` carries an ignore comment covering ``rule``."""
        if not 1 <= line <= len(self.lines):
            return False
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        return rule in {item.strip() for item in listed.split(",")}


class SourceTree:
    """Every parsed module under the lint root, queryable by path."""

    def __init__(self, root: Path, files: list[SourceFile]) -> None:
        self.root = root
        self.files = files
        self.by_rel = {sf.rel: sf for sf in files}

    @property
    def src_files(self) -> list[SourceFile]:
        return [sf for sf in self.files if sf.role == "src"]

    def find(self, rel_suffix: str) -> SourceFile | None:
        """First src file whose relative path ends with ``rel_suffix``."""
        for sf in self.src_files:
            if sf.rel.endswith(rel_suffix):
                return sf
        return None


def _collect(base: Path, role: str, root: Path) -> Iterator[SourceFile]:
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(text, filename=rel)
            error = None
        except SyntaxError as exc:
            tree, error = None, f"{exc.msg} (line {exc.lineno})"
        yield SourceFile(path=path, rel=rel, role=role, text=text,
                         lines=text.splitlines(), tree=tree, error=error)


def load_tree(root: Path) -> SourceTree:
    """Parse ``src/repro``, ``tests`` and ``benchmarks`` under ``root``."""
    root = Path(root).resolve()
    files: list[SourceFile] = []
    for role, base in (("src", root / "src" / "repro"),
                       ("tests", root / "tests"),
                       ("benchmarks", root / "benchmarks")):
        files.extend(_collect(base, role, root))
    return SourceTree(root, files)


def default_root() -> Path:
    """The repository root this installed package was loaded from."""
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path.cwd()


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule`` (the id used in reports, ``--rules`` and
    ignore comments), a default ``severity`` and a one-line
    ``description``, then yield :class:`Finding` objects from
    :meth:`check`.  Register with :func:`register` so the CLI and
    :func:`run_lint` discover them.

    ``contract`` is the rule's full prose contract and ``example`` a
    minimal violating snippet — both printed by
    ``python -m repro lint --explain <rule>``.
    """

    rule: str = ""
    severity: str = "warning"
    description: str = ""
    contract: str = ""
    example: str = ""

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, sf: SourceFile | str, line: int, message: str,
                symbol: str = "", severity: str | None = None) -> Finding:
        path = sf if isinstance(sf, str) else sf.rel
        return Finding(rule=self.rule, severity=severity or self.severity,
                       path=path, line=line, message=message, symbol=symbol)


_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global rule registry."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} declares no rule id")
    if cls.severity not in SEVERITY_ORDER:
        raise ValueError(f"{cls.__name__} has unknown severity "
                         f"{cls.severity!r}")
    if cls.rule in _REGISTRY and _REGISTRY[cls.rule] is not cls:
        raise ValueError(f"rule id {cls.rule!r} registered twice")
    _REGISTRY[cls.rule] = cls
    return cls


def registered_rules() -> dict[str, type[Checker]]:
    """Rule id -> checker class, importing the built-in checkers once."""
    from repro.analysis import checkers  # noqa: F401  (registration side effect)

    return dict(sorted(_REGISTRY.items()))


# -- baseline -------------------------------------------------------------------------


def load_baseline(path: Path) -> set[str]:
    """Fingerprints grandfathered by a committed baseline file."""
    if not Path(path).is_file():
        return set()
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {entry["fingerprint"] for entry in data.get("findings", [])}


def write_baseline(path: Path, findings: Iterable[Finding]) -> dict:
    """Persist ``findings`` as the new baseline; returns the payload."""
    payload = {
        "version": 1,
        "comment": "grandfathered ravelint findings; regenerate with "
                   "`python -m repro lint --write-baseline`",
        "findings": [
            {"fingerprint": f.fingerprint, "rule": f.rule, "path": f.path,
             "severity": f.severity, "message": f.message}
            for f in sorted(findings,
                            key=lambda f: (f.path, f.rule, f.symbol,
                                           f.message))
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    return payload


# -- running --------------------------------------------------------------------------


@dataclass
class LintResult:
    """Partitioned output of one lint run."""

    root: str
    rules: list[str]
    findings: list[Finding] = field(default_factory=list)   # actionable
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(SEVERITIES, 0)
        for f in self.findings:
            out[f.severity] += 1
        return out

    def failed(self, fail_on: str = "warning") -> bool:
        floor = SEVERITY_ORDER[fail_on]
        return any(SEVERITY_ORDER[f.severity] >= floor
                   for f in self.findings)


def run_lint(root: Path | str | None = None,
             rules: Iterable[str] | None = None,
             baseline_path: Path | str | None = None,
             ignore: Iterable[str] | None = None) -> LintResult:
    """Run ravelint over the tree rooted at ``root``.

    ``rules`` restricts the run to the named rule ids (default: all
    registered) and ``ignore`` then drops rule ids from that selection
    — CI granularity without touching suppressions or the baseline.
    ``baseline_path`` defaults to ``lint-baseline.json`` under the root
    when that file exists.  Unparseable modules surface as ``parse``
    findings rather than aborting the run.
    """
    root = Path(root).resolve() if root is not None else default_root()
    available = registered_rules()
    if rules is None:
        selected = list(available)
    else:
        selected = list(rules)
        unknown = [r for r in selected if r not in available]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; "
                f"available: {sorted(available)}")
    if ignore is not None:
        dropped = list(ignore)
        unknown = [r for r in dropped if r not in available]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; "
                f"available: {sorted(available)}")
        selected = [r for r in selected if r not in dropped]
    tree = load_tree(root)

    raw: list[Finding] = []
    for sf in tree.files:
        if sf.error is not None:
            raw.append(Finding(rule="parse", severity="error", path=sf.rel,
                               line=1, symbol=sf.rel,
                               message=f"could not parse: {sf.error}"))
    for rule_id in selected:
        raw.extend(available[rule_id]().check(tree))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    if baseline_path is None:
        baseline_path = root / BASELINE_NAME
    grandfathered = load_baseline(Path(baseline_path))

    result = LintResult(root=str(root), rules=selected)
    for f in raw:
        sf = tree.by_rel.get(f.path)
        if sf is not None and sf.suppresses(f.line, f.rule):
            result.suppressed.append(f)
        elif f.fingerprint in grandfathered:
            result.baselined.append(f)
        else:
            result.findings.append(f)
    return result
