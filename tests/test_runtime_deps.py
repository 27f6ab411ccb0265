"""The runtime needs numpy and nothing else.

A render service recruited onto a grid machine should need no special
software: ``pyproject.toml`` lists numpy as the only runtime dependency,
and these tests keep the code honest about it.  scipy and networkx stay
in the ``dev`` extra as test-only references
(``tests/test_volume_sampler.py``, ``tests/test_simnet_routing.py``).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def imported_roots(tree: ast.AST):
    """(line, top-level package) of every absolute import in ``tree``,
    function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_repro():
    files = sorted((SRC / "repro").rglob("*.py"))
    assert len(files) > 50
    foreign = [f"{path.relative_to(SRC)}:{line} imports {root}"
               for path in files
               for line, root in imported_roots(ast.parse(path.read_text()))
               if root not in ALLOWED]
    assert not foreign


#: runs in a fresh interpreter where scipy and networkx cannot be imported
WITHOUT_SCIPY_OR_NETWORKX = textwrap.dedent("""
    import importlib.abc
    import sys

    class Refuse(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in ("scipy", "networkx"):
                raise ModuleNotFoundError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, Refuse())

    import repro
    from repro.data.volumes import visible_human_phantom
    from repro.render.camera import Camera
    from repro.render.volume import raymarch_volume
    from repro.testbed import build_testbed

    net = build_testbed().network
    route = net.path("zaurus", "onyx")
    record = net.send("zaurus", "onyx", 4096)
    net.sim.run_until(net.sim.now + 10.0)
    assert record.path == tuple(route) and record.duration > 0
    camera = Camera.looking_at((0.0, 0.0, 3.5), up=(0.0, 1.0, 0.0))
    image = raymarch_volume(visible_human_phantom(32), camera, 32, 24)
    assert image.coverage > 0
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] in ("scipy", "networkx"))
    assert not loaded, loaded
    print(" -> ".join(route))
""")


def test_routes_and_raymarches_without_scipy_or_networkx():
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY_OR_NETWORKX],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().startswith("zaurus -> ")
