"""Dataset substrate: meshes, volumes, file formats and provenance pipelines.

The paper benchmarks two polygonal models it could not redistribute (the
Clemson skeletal hand, 0.83 M triangles / 20 MB, and the Visible-Man
skeleton, 2.8 M triangles / 75 MB) plus two small scenes ("Galleon",
5.5 k and "Elle", 50 k).  This subpackage regenerates equivalents:

- :mod:`repro.data.meshes` — indexed triangle mesh container and statistics;
- :mod:`repro.data.generators` — deterministic procedural generators for all
  four named models, scalable to the paper's exact polygon counts;
- :mod:`repro.data.ply` / :mod:`repro.data.obj` — real PLY and Wavefront OBJ
  readers/writers (the paper converts PLY to OBJ before import);
- :mod:`repro.data.convert` — that PLY→OBJ ingest pipeline;
- :mod:`repro.data.volumes` + :mod:`repro.data.marching_cubes` +
  :mod:`repro.data.decimation` — the stated provenance of the skeleton model
  (CT volume → marching cubes → polygon decimation), implemented for real.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.meshes": ("Mesh", "MeshStats", "merge_meshes"),
    "repro.data.generators": ("elle", "galleon", "make_model",
                              "skeletal_hand", "skeleton", "MODEL_REGISTRY"),
    "repro.data.ply": ("read_ply", "write_ply"),
    "repro.data.obj": ("read_obj", "write_obj"),
    "repro.data.convert": ("ply_to_obj",),
    "repro.data.volumes": ("VoxelVolume", "visible_human_phantom"),
    "repro.data.marching_cubes": ("marching_cubes",),
    "repro.data.decimation": ("decimate",),
    "repro.data.textures": ("Texture", "checkerboard", "gradient", "marble",
                            "planar_uv"),
})
