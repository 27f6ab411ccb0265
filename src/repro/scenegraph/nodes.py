"""Scene-graph node types.

Nodes carry the renderable payloads (meshes, point clouds, voxel volumes),
structure (groups, transforms), viewing state (cameras, lights) and
collaboration state (avatars).  Every node exposes *wire fields* — the
introspection surface the marshaller and the interaction GUI walk, exactly
as the paper describes ("each node in the scene graph is examined for
implemented interfaces").

``node_to_wire`` / ``node_from_wire`` give a pickle-free serialisation:
plain dicts of primitives plus ``(dtype, shape, bytes)`` triples for arrays,
consumable by both the SOAP (XML/base64) and binary channels.
"""

from __future__ import annotations

import numpy as np

from repro.data.meshes import Mesh
from repro.data.volumes import VoxelVolume
from repro.errors import SceneGraphError


def _identity4() -> np.ndarray:
    return np.eye(4, dtype=np.float64)


def look_at_basis(fwd: np.ndarray, up: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(right, true_up)`` of the right-handed frame looking along ``fwd``.

    ``fwd`` is unit length; ``up`` is the caller's raw up vector, swapped
    for a perpendicular axis when it is within 0.999 of ``fwd``.  The two
    cross products are written out on Python floats: ``np.cross`` on a
    pair of 3-vectors is a Python function (≈ 17 µs against ≈ 1 µs here)
    and rounds the same way — every product and difference once — so the
    basis is the one ``np.cross`` gives, bit for bit.
    """
    upn = up / np.linalg.norm(up)
    if abs(float(fwd @ upn)) > 0.999:
        # Degenerate up vector: pick any perpendicular axis.
        upn = (np.array([1.0, 0.0, 0.0])
               if abs(fwd[0]) < 0.9 else np.array([0.0, 1.0, 0.0]))
    fx, fy, fz = fwd.tolist()
    ux, uy, uz = upn.tolist()
    right = np.array([fy * uz - fz * uy, fz * ux - fx * uz,
                      fx * uy - fy * ux])
    right /= np.linalg.norm(right)
    rx, ry, rz = right.tolist()
    true_up = np.array([ry * fz - rz * fy, rz * fx - rx * fz,
                        rx * fy - ry * fx])
    return right, true_up


class SceneNode:
    """Base scene node.

    ``node_id`` is assigned when the node joins a :class:`SceneTree`; a
    detached node has id ``-1``.

    ``subtree_polygons`` is the polygon count of the node and everything
    below it.  It is kept where it can change — :meth:`add_child`,
    :meth:`remove_child` and a mesh node's payload assignment — so a
    policy query reads it instead of walking the subtree.
    """

    #: wire type tag, overridden per subclass
    TYPE = "node"

    def __init__(self, name: str = "") -> None:
        self.name = name or self.TYPE
        self.node_id: int = -1
        self.parent: SceneNode | None = None
        self.children: list[SceneNode] = []
        self.subtree_polygons: int = 0

    # -- structure ----------------------------------------------------------

    def add_child(self, child: SceneNode) -> SceneNode:
        if child is self:
            raise SceneGraphError("a node cannot be its own child")
        ancestor = self
        while ancestor is not None:
            if ancestor is child:
                raise SceneGraphError(
                    f"adding {child.name!r} under {self.name!r} creates a cycle"
                )
            ancestor = ancestor.parent
        if child.parent is not None:
            child.parent.remove_child(child)
        child.parent = self
        self.children.append(child)
        self._shift_polygons(child.subtree_polygons)
        return child

    def remove_child(self, child: SceneNode) -> None:
        try:
            self.children.remove(child)
        except ValueError:
            raise SceneGraphError(
                f"{child.name!r} is not a child of {self.name!r}"
            ) from None
        child.parent = None
        self._shift_polygons(-child.subtree_polygons)

    def _shift_polygons(self, delta: int) -> None:
        """Add ``delta`` to the subtree count of this node and its ancestors."""
        if delta:
            node = self
            while node is not None:
                node.subtree_polygons += delta
                node = node.parent

    def iter_subtree(self):
        """Depth-first pre-order traversal including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- introspection surface ----------------------------------------------

    def wire_fields(self) -> dict:
        """Field name → value mapping serialised on the wire.

        Subclasses extend; values are primitives, numpy arrays, or nested
        dicts of those.
        """
        return {"name": self.name}

    def apply_wire_fields(self, fields: dict) -> None:
        self.name = str(fields.get("name", self.name))

    #: interaction verbs the GUI discovers by interrogation (paper §5.2)
    def supported_interactions(self) -> list[str]:
        return ["select", "rename"]

    # -- cost (consumed by repro.core.cost) ----------------------------------

    @property
    def n_polygons(self) -> int:
        return 0

    @property
    def n_points(self) -> int:
        return 0

    @property
    def n_voxels(self) -> int:
        return 0

    @property
    def texture_bytes(self) -> int:
        return 0

    @property
    def payload_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(id={self.node_id}, name={self.name!r},"
                f" children={len(self.children)})")


class GroupNode(SceneNode):
    """Pure structural grouping."""

    TYPE = "group"


class TransformNode(SceneNode):
    """A 4x4 affine transform applied to its subtree."""

    TYPE = "transform"

    def __init__(self, matrix: np.ndarray | None = None, name: str = "") -> None:
        super().__init__(name)
        self.matrix = _identity4() if matrix is None else self._check(matrix)

    @staticmethod
    def _check(matrix) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (4, 4):
            raise SceneGraphError(f"transform must be 4x4; got {matrix.shape}")
        return matrix.copy()

    def set_matrix(self, matrix) -> None:
        self.matrix = self._check(matrix)

    @classmethod
    def from_translation(cls, offset, name: str = "") -> TransformNode:
        m = _identity4()
        m[:3, 3] = np.asarray(offset, dtype=np.float64)
        return cls(m, name)

    @classmethod
    def from_scale(cls, factor: float, name: str = "") -> TransformNode:
        m = _identity4()
        m[0, 0] = m[1, 1] = m[2, 2] = float(factor)
        return cls(m, name)

    @classmethod
    def from_rotation_z(cls, angle: float, name: str = "") -> TransformNode:
        m = _identity4()
        c, s = np.cos(angle), np.sin(angle)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
        return cls(m, name)

    def wire_fields(self) -> dict:
        return {**super().wire_fields(), "matrix": self.matrix}

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "matrix" in fields:
            self.set_matrix(fields["matrix"])

    def supported_interactions(self) -> list[str]:
        return super().supported_interactions() + ["translate", "rotate",
                                                   "scale"]


class MeshNode(SceneNode):
    """Polygonal geometry leaf."""

    TYPE = "mesh"

    def __init__(self, mesh: Mesh, name: str = "") -> None:
        super().__init__(name or mesh.name)
        self._mesh = mesh
        self.subtree_polygons = mesh.n_triangles

    @property
    def mesh(self) -> Mesh:
        return self._mesh

    @mesh.setter
    def mesh(self, mesh: Mesh) -> None:
        """Replace the payload; the subtree counts above follow it."""
        delta = mesh.n_triangles - self._mesh.n_triangles
        self._mesh = mesh
        self._shift_polygons(delta)

    @property
    def n_polygons(self) -> int:
        return self._mesh.n_triangles

    @property
    def payload_bytes(self) -> int:
        return self.mesh.byte_size

    @property
    def texture_bytes(self) -> int:
        return self.mesh.texture_bytes

    def wire_fields(self) -> dict:
        fields = {
            **super().wire_fields(),
            "vertices": self.mesh.vertices,
            "faces": self.mesh.faces,
        }
        if self.mesh.colors is not None:
            fields["colors"] = self.mesh.colors
        if self.mesh.uv is not None:
            fields["uv"] = self.mesh.uv
        if self.mesh.texture is not None:
            fields["texture_image"] = self.mesh.texture.image
            fields["texture_name"] = self.mesh.texture.name
        return fields

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "vertices" in fields or "faces" in fields:
            texture = None
            if "texture_image" in fields:
                from repro.data.textures import Texture

                texture = Texture(fields["texture_image"],
                                  name=str(fields.get("texture_name",
                                                      "texture")))
            self.mesh = Mesh(
                fields.get("vertices", self.mesh.vertices),
                fields.get("faces", self.mesh.faces),
                fields.get("colors", None),
                name=self.name,
                uv=fields.get("uv", None),
                texture=texture,
            )

    def supported_interactions(self) -> list[str]:
        return super().supported_interactions() + ["translate", "rotate",
                                                   "scale", "recolor"]


class PointCloudNode(SceneNode):
    """Point-based geometry leaf (paper future work, implemented)."""

    TYPE = "points"

    def __init__(self, points: np.ndarray, colors: np.ndarray | None = None,
                 point_size: float = 1.0, name: str = "") -> None:
        super().__init__(name)
        points = np.ascontiguousarray(points, dtype=np.float32)
        if points.ndim != 2 or points.shape[1] != 3:
            raise SceneGraphError(f"points must be (n, 3); got {points.shape}")
        if colors is not None:
            colors = np.ascontiguousarray(colors, dtype=np.float32)
            if colors.shape != points.shape:
                raise SceneGraphError("colors must match points shape")
        self.points = points
        self.colors = colors
        self.point_size = float(point_size)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def payload_bytes(self) -> int:
        size = self.points.nbytes
        if self.colors is not None:
            size += self.colors.nbytes
        return size

    def wire_fields(self) -> dict:
        fields = {
            **super().wire_fields(),
            "points": self.points,
            "point_size": self.point_size,
        }
        if self.colors is not None:
            fields["colors"] = self.colors
        return fields

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "points" in fields:
            self.points = np.ascontiguousarray(fields["points"],
                                               dtype=np.float32)
        if "colors" in fields:
            self.colors = np.ascontiguousarray(fields["colors"],
                                               dtype=np.float32)
        if "point_size" in fields:
            self.point_size = float(fields["point_size"])


class VolumeNode(SceneNode):
    """Voxel-volume leaf (paper future work, implemented)."""

    TYPE = "volume"

    def __init__(self, volume: VoxelVolume, iso: float = 0.5,
                 opacity_scale: float = 1.0, name: str = "") -> None:
        super().__init__(name or volume.name)
        self.volume = volume
        self.iso = float(iso)
        self.opacity_scale = float(opacity_scale)

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.volume.shape))

    @property
    def payload_bytes(self) -> int:
        return self.volume.byte_size

    def wire_fields(self) -> dict:
        return {
            **super().wire_fields(),
            "values": self.volume.values,
            "spacing": np.asarray(self.volume.spacing),
            "origin": np.asarray(self.volume.origin),
            "iso": self.iso,
            "opacity_scale": self.opacity_scale,
        }

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "values" in fields:
            self.volume = VoxelVolume(
                fields["values"],
                tuple(np.asarray(fields.get("spacing", self.volume.spacing),
                                 dtype=float)),
                tuple(np.asarray(fields.get("origin", self.volume.origin),
                                 dtype=float)),
                name=self.name,
            )
        if "iso" in fields:
            self.iso = float(fields["iso"])
        if "opacity_scale" in fields:
            self.opacity_scale = float(fields["opacity_scale"])


class CameraNode(SceneNode):
    """A viewing camera.  Every client owns one; shared for tiled rendering."""

    TYPE = "camera"

    def __init__(self, position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 0.0),
                 up=(0.0, 1.0, 0.0), fov_degrees: float = 45.0,
                 name: str = "") -> None:
        super().__init__(name)
        self.position = np.asarray(position, dtype=np.float64).copy()
        self.target = np.asarray(target, dtype=np.float64).copy()
        self.up = np.asarray(up, dtype=np.float64).copy()
        self.fov_degrees = float(fov_degrees)

    def look(self, position=None, target=None) -> None:
        if position is not None:
            self.position = np.asarray(position, dtype=np.float64).copy()
        if target is not None:
            self.target = np.asarray(target, dtype=np.float64).copy()

    def view_direction(self) -> np.ndarray:
        d = self.target - self.position
        n = np.linalg.norm(d)
        return d / n if n > 0 else np.array([0.0, 0.0, -1.0])

    def orbit(self, azimuth: float, elevation: float = 0.0) -> None:
        """Rotate the camera around its target (the GUI's drag gesture)."""
        rel = self.position - self.target
        r = np.linalg.norm(rel)
        if r == 0:
            return
        theta = np.arctan2(rel[1], rel[0]) + azimuth
        phi = np.arccos(np.clip(rel[2] / r, -1.0, 1.0)) - elevation
        phi = np.clip(phi, 1e-3, np.pi - 1e-3)
        self.position = self.target + r * np.array([
            np.sin(phi) * np.cos(theta),
            np.sin(phi) * np.sin(theta),
            np.cos(phi),
        ])

    def wire_fields(self) -> dict:
        return {
            **super().wire_fields(),
            "position": self.position,
            "target": self.target,
            "up": self.up,
            "fov_degrees": self.fov_degrees,
        }

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        for attr in ("position", "target", "up"):
            if attr in fields:
                setattr(self, attr,
                        np.asarray(fields[attr], dtype=np.float64).copy())
        if "fov_degrees" in fields:
            self.fov_degrees = float(fields["fov_degrees"])

    def supported_interactions(self) -> list[str]:
        return super().supported_interactions() + ["orbit", "zoom", "pan",
                                                   "rotate-around-selection"]


class AvatarNode(SceneNode):
    """Collaborator representation: "a cone pointing in the direction of the
    user's view, and the name of the user or host" (paper Figure 3)."""

    TYPE = "avatar"

    def __init__(self, user: str, host: str = "", position=(0.0, 0.0, 5.0),
                 view_direction=(0.0, 0.0, -1.0), name: str = "") -> None:
        super().__init__(name or f"avatar:{user}")
        self.user = user
        self.host = host
        self.position = np.asarray(position, dtype=np.float64).copy()
        self.view_direction = np.asarray(view_direction, dtype=np.float64).copy()

    @property
    def label(self) -> str:
        return self.host or self.user

    def cone_geometry(self, size: float = 0.25, n_around: int = 8) -> Mesh:
        """The avatar's renderable cone, apex pointing along the view."""
        d = self.view_direction
        norm = np.linalg.norm(d)
        d = d / norm if norm > 0 else np.array([0.0, 0.0, -1.0])
        apex = self.position + d * size
        base_center = self.position
        ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array(
            [1.0, 0.0, 0.0])
        u = np.cross(d, ref)
        u /= np.linalg.norm(u)
        v = np.cross(d, u)
        ang = np.linspace(0, 2 * np.pi, n_around, endpoint=False)
        ring = (base_center[None, :]
                + 0.4 * size * (np.cos(ang)[:, None] * u[None, :]
                                + np.sin(ang)[:, None] * v[None, :]))
        verts = np.concatenate([ring, apex[None, :], base_center[None, :]])
        i = np.arange(n_around)
        j = (i + 1) % n_around
        side = np.stack([i, j, np.full(n_around, n_around)], axis=1)
        base = np.stack([j, i, np.full(n_around, n_around + 1)], axis=1)
        return Mesh(verts, np.concatenate([side, base]).astype(np.int32),
                    name=self.name)

    def wire_fields(self) -> dict:
        return {
            **super().wire_fields(),
            "user": self.user,
            "host": self.host,
            "position": self.position,
            "view_direction": self.view_direction,
        }

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "user" in fields:
            self.user = str(fields["user"])
        if "host" in fields:
            self.host = str(fields["host"])
        for attr in ("position", "view_direction"):
            if attr in fields:
                setattr(self, attr,
                        np.asarray(fields[attr], dtype=np.float64).copy())


class LightNode(SceneNode):
    """Directional light used by the shading model."""

    TYPE = "light"

    def __init__(self, direction=(-0.4, -0.6, -1.0), color=(1.0, 1.0, 1.0),
                 ambient: float = 0.25, name: str = "") -> None:
        super().__init__(name)
        self.direction = np.asarray(direction, dtype=np.float64).copy()
        self.color = np.asarray(color, dtype=np.float64).copy()
        self.ambient = float(ambient)

    def wire_fields(self) -> dict:
        return {
            **super().wire_fields(),
            "direction": self.direction,
            "color": self.color,
            "ambient": self.ambient,
        }

    def apply_wire_fields(self, fields: dict) -> None:
        super().apply_wire_fields(fields)
        if "direction" in fields:
            self.direction = np.asarray(fields["direction"],
                                        dtype=np.float64).copy()
        if "color" in fields:
            self.color = np.asarray(fields["color"], dtype=np.float64).copy()
        if "ambient" in fields:
            self.ambient = float(fields["ambient"])


#: wire type tag → class, for deserialisation
NODE_TYPES: dict[str, type[SceneNode]] = {
    cls.TYPE: cls
    for cls in (GroupNode, TransformNode, MeshNode, PointCloudNode,
                VolumeNode, CameraNode, AvatarNode, LightNode)
}


def _blank(cls: type[SceneNode]) -> SceneNode:
    """Construct an empty instance for deserialisation."""
    if cls is MeshNode:
        return MeshNode(Mesh(np.zeros((0, 3), np.float32),
                             np.zeros((0, 3), np.int32)))
    if cls is PointCloudNode:
        return PointCloudNode(np.zeros((0, 3), np.float32))
    if cls is VolumeNode:
        return VolumeNode(VoxelVolume(np.zeros((2, 2, 2), np.float32)))
    if cls is AvatarNode:
        return AvatarNode(user="")
    return cls()


def node_to_wire(node: SceneNode) -> dict:
    """Serialise one node (without children) to a wire dict."""
    return {"type": node.TYPE, "fields": node.wire_fields()}


def node_from_wire(payload: dict) -> SceneNode:
    """Reconstruct a node from :func:`node_to_wire` output."""
    try:
        cls = NODE_TYPES[payload["type"]]
    except KeyError:
        raise SceneGraphError(
            f"unknown node type {payload.get('type')!r}"
        ) from None
    node = _blank(cls)
    node.apply_wire_fields(payload.get("fields", {}))
    return node
