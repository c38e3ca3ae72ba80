import numpy as np
import pytest

from spheremesh import (
    MeshError,
    PointCloud,
    SurfaceMesh,
    angle_distortion,
    cube_sphere,
    delaunay_ratio,
    icosphere,
    induce_mesh,
    mean_curvature,
    parameterize,
    spherical_delaunay,
)
from spheremesh.metrics import DELAUNAY_SLACK

from conftest import uniform_sphere


def planar_patch(delaunay=True):
    """A skewed planar quad split along either diagonal.  Direct angle
    computation: the (1,3) split has opposite angles 45 + 45 degrees,
    the (0,2) split has 135 + 135, violating the opposite-angle rule."""
    v = np.array([[0.0, 0, 0], [4.0, 0, 0], [5.0, 1.0, 0], [1.0, 1.0, 0]])
    if delaunay:
        f = np.array([[0, 1, 3], [1, 2, 3]])
    else:
        f = np.array([[0, 1, 2], [0, 2, 3]])
    return SurfaceMesh(v, f)


class TestAngleDistortion:
    def test_identical_meshes_zero(self):
        pts = uniform_sphere(100, seed=0)
        mesh = spherical_delaunay(pts)
        diffs, mean, sd = angle_distortion(mesh, mesh)
        assert diffs.shape == (3 * mesh.n_faces,)
        assert mean == 0.0 and sd == 0.0

    def test_uniform_scaling_invariant(self):
        pts = uniform_sphere(100, seed=1)
        mesh = spherical_delaunay(pts)
        scaled = SurfaceMesh(5.0 * pts, mesh.faces)
        diffs, mean, _ = angle_distortion(scaled, mesh)
        assert diffs.max() <= 1e-9

    def test_rotation_invariant(self):
        pts = uniform_sphere(120, seed=2)
        mesh = spherical_delaunay(pts)
        theta = 0.83
        rot = np.array(
            [[np.cos(theta), -np.sin(theta), 0],
             [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]]
        )
        rotated = SurfaceMesh(pts @ rot.T, mesh.faces)
        diffs, _, _ = angle_distortion(rotated, mesh)
        assert diffs.max() <= 1e-8

    def test_mismatched_connectivity_rejected(self):
        m1 = planar_patch(True)
        m2 = planar_patch(False)
        with pytest.raises(MeshError, match="connectivity"):
            angle_distortion(m1, m2)


def reference_delaunay_ratio(mesh):
    """Loop over a dict of edge -> opposite corners, one edge at a time."""
    angles = mesh.corner_angles()
    places = {}
    for fid, face in enumerate(mesh.faces):
        for e in range(3):
            key = tuple(sorted((face[e], face[(e + 1) % 3])))
            places.setdefault(key, []).append((fid, (e + 2) % 3))
    interior = [p for p in places.values() if len(p) == 2]
    good = sum(
        sum(angles[fid, c] for fid, c in p) <= np.pi + DELAUNAY_SLACK
        for p in interior
    )
    return good / len(interior)


class TestDelaunayRatio:
    def test_planar_delaunay_patch(self):
        assert delaunay_ratio(planar_patch(True)) == 1.0

    def test_flipped_diagonal_below_one(self):
        # direct angle computation confirms the bad diagonal: opposite
        # angles at corners 1 and 3 sum beyond pi
        mesh = planar_patch(False)
        ratio = delaunay_ratio(mesh)
        assert ratio < 1.0

    def test_spherical_delaunay_near_one(self):
        for n, seed in ((100, 3), (1000, 4), (5000, 5)):
            mesh = spherical_delaunay(uniform_sphere(n, seed=seed))
            assert delaunay_ratio(mesh) >= 0.99

    def test_matches_dict_reference_on_induced_mesh(self):
        pts = uniform_sphere(3000, seed=20) * np.array([2.0, 1.0, 1.0])
        cloud = PointCloud(pts)
        mesh = induce_mesh(cloud, parameterize(cloud))
        assert delaunay_ratio(mesh) == reference_delaunay_ratio(mesh)

    def test_quad_mesh_rejected(self):
        with pytest.raises(MeshError, match="defined for triangle meshes"):
            delaunay_ratio(cube_sphere(1))

    def test_single_triangle_has_no_interior_edge(self):
        mesh = SurfaceMesh(np.eye(3), np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="no interior edges"):
            delaunay_ratio(mesh)

    def test_open_patch_skips_boundary_edges(self):
        ico = icosphere(1)
        patch = SurfaceMesh(ico.vertices, ico.faces[1:])
        assert delaunay_ratio(patch) == reference_delaunay_ratio(patch) == 1.0
        flipped = planar_patch(False)  # one interior edge, four boundary
        assert delaunay_ratio(flipped) == reference_delaunay_ratio(flipped) == 0.0


class TestMeanCurvature:
    def test_plane_is_flat(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.uniform(-1, 1, (400, 2)), np.zeros(400)])
        cloud = PointCloud(pts)
        h = mean_curvature(cloud, k=15)
        assert np.abs(h).max() <= 1e-9

    def test_unit_sphere(self):
        cloud = PointCloud(uniform_sphere(10000, seed=7))
        h = mean_curvature(cloud, k=25)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=0.1)

    def test_cylinder(self):
        rng = np.random.default_rng(8)
        theta = rng.uniform(0, 2 * np.pi, 8000)
        z = rng.uniform(-2, 2, 8000)
        pts = np.column_stack([np.cos(theta), np.sin(theta), z])
        cloud = PointCloud(pts)
        h = mean_curvature(cloud, k=25)
        np.testing.assert_allclose(np.abs(h), 0.5, atol=0.1)
