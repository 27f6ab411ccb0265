"""Scene-tree substrate.

The data service "stores data in the form of a scene tree; nodes of the
tree may contain various types of data, such as voxels, point clouds or
polygons".  This subpackage is that tree:

- :mod:`repro.scenegraph.nodes` — the node hierarchy (groups, transforms,
  meshes, point clouds, volumes, cameras, avatars, lights);
- :mod:`repro.scenegraph.interfaces` — the introspection interfaces
  ("many items have a 'Position' field, so this is an interface we check
  for") used by marshalling and by the interaction GUI;
- :mod:`repro.scenegraph.tree` — the tree itself: ids, traversal, world
  transforms, subtree extraction with parent chains;
- :mod:`repro.scenegraph.updates` — the delta protocol between data service
  and render services;
- :mod:`repro.scenegraph.audit` — the persistent audit trail enabling
  asynchronous collaboration with recorded sessions;
- :mod:`repro.scenegraph.picking` — ray picking for click-to-select
  interaction.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scenegraph.nodes": ("AvatarNode", "CameraNode", "GroupNode",
                               "LightNode", "MeshNode", "PointCloudNode",
                               "SceneNode", "TransformNode", "VolumeNode",
                               "node_from_wire", "node_to_wire"),
    "repro.scenegraph.interfaces": ("INTERFACES", "discover_interfaces",
                                    "interface_fields"),
    "repro.scenegraph.tree": ("SceneTree",),
    "repro.scenegraph.updates": ("AddNode", "ModifyGeometry", "MoveAvatar",
                                 "RemoveNode", "SceneUpdate", "SetCamera",
                                 "SetProperty", "SetTransform",
                                 "update_from_wire"),
    "repro.scenegraph.audit": ("AuditTrail",),
    "repro.scenegraph.picking": ("Ray", "pick_mesh", "pick_tree"),
})
