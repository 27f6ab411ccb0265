"""RAVE — Resource-Aware Visualization Environment (reproduction).

A from-scratch Python reproduction of *"Automatic Distribution of Rendering
Workloads in a Grid Enabled Collaborative Visualization Environment"*
(Grimstead, Avis & Walker, SC 2004): a grid-enabled collaborative
visualization system with a persistent data service, render services that
draw on- or off-screen, thin clients down to PDA class, UDDI/WSDL/SOAP
discovery, and — the core contribution — automatic, capacity-aware
distribution and migration of rendering workloads.

Quick start::

    from repro import build_testbed
    from repro.data import galleon

    tb = build_testbed()
    session = tb.publish_model("demo", galleon().normalized())
    rs = tb.render_service("centrino")
    rsession, boot = rs.create_render_session(tb.data_service, "demo")
    client = tb.thin_client("viewer")
    client.attach(rs, rsession.render_session_id)
    frame, timing = client.request_frame(200, 200)

Importing the package imports none of the modules behind its names; the
first use of a name imports its module (:mod:`repro._lazy`).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.testbed": ("Testbed", "build_testbed"),
    "repro.core.session": ("CollaborativeSession",),
    "repro.core.grid": ("SessionGridManager", "TenantQuota"),
    "repro.core.scheduler": ("RenderServiceScheduler",),
    "repro.core.distribution": ("DatasetDistributor",
                                "FramebufferDistributor"),
    "repro.core.migration": ("WorkloadMigrator",),
    "repro.core.capacity": ("RenderCapacity", "CapacityReport"),
    "repro.render.camera": ("Camera",),
    "repro.render.framebuffer": ("FrameBuffer",),
    "repro.render.engine": ("RenderEngine",),
    "repro.scenegraph.tree": ("SceneTree",),
    "repro.scenegraph.nodes": ("MeshNode", "CameraNode"),
    "repro.services.data_service": ("DataService",),
    "repro.services.render_service": ("RenderService",),
    "repro.services.container": ("ServiceContainer",),
    "repro.services.clients": ("ThinClient",),
    "repro.errors": ("RaveError", "SceneGraphError", "RenderError",
                     "ServiceError", "InsufficientResources",
                     "TooManyRequestsError"),
})
