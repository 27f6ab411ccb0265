"""A process imports only the modules its run uses.

Package ``__init__`` files export their names lazily (:mod:`repro._lazy`),
so ``import repro`` is cheap and a thin-client testbed never loads the
grid, farm, autoscaler, monitor, compression, collaboration, linter or
sanitizer.  Four inits keep import-time effects: ``repro.render`` pins
glibc's heap, ``repro.obs`` builds ``NULL_OBS``, ``repro.compression``
defines every ``Codec`` subclass and ``repro.analysis.checkers``
registers the lint rules.  Each case runs in a fresh interpreter,
because this one has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from tests.test_exports import PACKAGES

SRC = Path(__file__).resolve().parents[1] / "src"

THIN_CLIENT = """
    from repro.data.generators import elle
    from repro.testbed import build_testbed

    tb = build_testbed(%s)
    tb.publish_model("scene", elle(500))
    service = tb.render_service("onyx")
    session, _ = service.create_render_session(tb.data_service, "scene")
    client = tb.thin_client("pda")
    client.attach(service, session.render_session_id)
    client.request_frame(40, 30)
"""

#: none of these serve a default testbed with one thin client
UNUSED = ("repro.farm", "repro.core.grid", "repro.core.autoscale",
          "repro.services.monitor", "repro.obs.rules", "repro.analysis",
          "repro.sanitizer", "repro.compression", "repro.collab")


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    out = fresh(textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "repro")))
    """))
    return set(json.loads(out.splitlines()[-1]))


def test_import_repro_loads_only_the_package():
    assert loaded("import repro") == {"repro", "repro._lazy"}


def test_a_thin_client_testbed_skips_the_other_roles():
    modules = loaded(THIN_CLIENT % 'render_hosts=("onyx",)')
    assert "repro.render.rasterizer" in modules
    assert not {m for m in modules for p in UNUSED
                if m == p or m.startswith(p + ".")}


def test_a_monitored_testbed_loads_the_monitor():
    modules = loaded(THIN_CLIENT % 'monitor_host="registry-host"')
    assert {"repro.services.monitor", "repro.obs.rules"} <= modules


def test_the_render_service_pins_the_heap_before_rasterizing():
    assert "repro.render" in loaded("import repro.services.render_service")


def test_the_codec_base_brings_every_codec():
    codecs = {f"repro.compression.{name}"
              for name in ("rle", "quantize", "delta", "adaptive")}
    assert codecs <= loaded("import repro.compression.base")


def test_no_export_reads_as_the_submodule_it_is_named_after():
    """``repro.data.marching_cubes`` stays the function once its module is
    imported, though importing a submodule binds it in its package."""
    fresh(f"""
        import importlib, inspect, pkgutil
        for package in {PACKAGES!r}:
            mod = importlib.import_module(package)
            for info in pkgutil.iter_modules(getattr(mod, "__path__", [])):
                importlib.import_module(f"{{package}}.{{info.name}}")
            for name in mod.__all__:
                assert not inspect.ismodule(getattr(mod, name)), name
    """)
