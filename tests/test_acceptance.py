"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Criteria 2, 8 and 10 share one full 10k-point pipeline
run through a session fixture.
"""

import time

import numpy as np
import pytest

from spheremesh import (
    FrameSet,
    PointCloud,
    SurfaceMesh,
    assemble_lb,
    build_frames,
    build_index,
    convex_hull,
    delaunay_ratio,
    induce_mesh,
    inv_north,
    inv_south,
    mls_fit,
    multilevel,
    parameterize,
    pole_distances,
    proj_north,
    proj_south,
    quad_mesh,
    quality_report,
    spherical_delaunay,
)
from spheremesh.experiment import run_disk_experiment
from spheremesh.laplacian import assemble_lb_from_frames
from spheremesh.param import balance
from spheremesh.synth import blob_cloud, punch_holes, sphere_cloud


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="session")
def sphere_pipeline():
    """Criterion 2/8/10 shared run: 10k uniform sphere end-to-end."""
    from spheremesh import sphere_triangulation

    cloud = sphere_cloud(10000, seed=7)
    start = time.time()
    sphere_map = parameterize(cloud)
    mesh = induce_mesh(cloud, sphere_map)
    rep = quality_report(mesh, sphere_triangulation(sphere_map))
    elapsed = time.time() - start
    return cloud, sphere_map, mesh, rep, elapsed


def test_criterion_1_disk_conformal_recovery():
    start = time.time()
    result = run_disk_experiment(n=2000, a=0.3, seed=0)
    elapsed = time.time() - start
    errors = result["errors"]
    proposed = errors["proposed"]
    assert proposed["mean"] <= 2e-3
    assert proposed["max"] <= 5e-2
    assert proposed["mean"] <= errors["wendland"]["mean"]
    assert proposed["mean"] <= errors["exponential"]["mean"]
    assert elapsed < 30.0
    report(
        1,
        f"disk recovery: proposed mean {proposed['mean']:.2e} "
        f"(<=2e-3), max {proposed['max']:.2e} (<=5e-2), beats "
        f"wendland {errors['wendland']['mean']:.2e} and gaussian "
        f"{errors['exponential']['mean']:.2e}; {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_sphere_identity_oracle(sphere_pipeline):
    _, sphere_map, _, rep, elapsed = sphere_pipeline
    assert rep.mean_abs_delta < 2.0
    assert rep.delaunay_ratio >= 0.99
    assert elapsed < 180.0
    report(
        2,
        f"10k sphere: mean |delta| {rep.mean_abs_delta:.4f} deg (<2), "
        f"Delaunay ratio {rep.delaunay_ratio:.4f} (>=0.99), "
        f"{elapsed:.1f}s (<180s)",
    )


def test_criterion_3_blob_suite():
    ratios = []
    for seed in (101, 202, 303):
        cloud = blob_cloud(5000, seed=seed)
        sphere_map = parameterize(cloud)
        assert sphere_map.converged
        assert sphere_map.iterations <= 100
        assert sphere_map.history[-1] < 1e-4
        mesh = induce_mesh(cloud, sphere_map)
        mesh.validate_closed_genus0()
        assert mesh.euler_characteristic() == 2
        ratio = delaunay_ratio(mesh)
        assert ratio >= 0.97
        ratios.append(ratio)
    report(
        3,
        "3 seeded 5k blobs converged (< 1e-4) with closed chi=2 oriented "
        f"meshes; Delaunay ratios {['%.4f' % r for r in ratios]} (>=0.97)",
    )


def test_criterion_4_balancing_exactness():
    cloud = sphere_cloud(3000, seed=21)
    index = build_index(cloud)
    sphere_map = parameterize(cloud)
    # skew the map so the balancing has real work to do
    skewed = inv_north(4.0 * proj_north(sphere_map.images))
    before = pole_distances(skewed, index, 25)
    rebalanced = balance(skewed, index, 25)
    d_p, d_s = pole_distances(rebalanced, index, 25)
    rel_gap = abs(d_p - d_s) / max(d_p, d_s)
    rel_product = abs(d_p * d_s - before[0] * before[1]) / (before[0] * before[1])
    assert rel_gap <= 1e-9
    assert rel_product <= 1e-9
    report(
        4,
        f"balance: recomputed d_p = d_s to {rel_gap:.2e} (<=1e-9), "
        f"product preserved to {rel_product:.2e} (<=1e-9)",
    )


def test_criterion_5_lb_property_suite(sphere_pipeline):
    # polynomial exactness on a generic stencil
    rng = np.random.default_rng(31)
    coords = np.vstack([[0.0, 0.0], rng.uniform(-0.5, 0.5, size=(24, 2))])
    c_true = rng.uniform(-2, 2, size=6)
    x, y = coords[:, 0], coords[:, 1]
    heights = (c_true[0] + c_true[1] * x + c_true[2] * y
               + c_true[3] * x * x + c_true[4] * x * y + c_true[5] * y * y)
    d3 = np.sqrt(x * x + y * y + heights * heights)
    order = np.lexsort((np.arange(25), d3))
    e1, e2, e3 = np.eye(3)[:, None]
    frame = FrameSet(
        e1, e2, e3, coords=coords[order][None], heights=heights[order][None],
        neighbor_ids=np.arange(25)[order][None], neighbor_dists=d3[order][None],
    )
    (coefficients,), _, _ = mls_fit(frame)
    poly_err = np.abs(coefficients - c_true).max()
    assert poly_err <= 1e-9

    # constant annihilation and Rayleigh quotients on the 10k sphere
    cloud, *_ = sphere_pipeline
    op = assemble_lb(cloud, k=25)
    leak = np.abs(op.matrix @ np.ones(op.n)).max()
    row_scale = np.abs(op.matrix).sum(axis=1).max()
    assert leak <= 1e-8 * row_scale
    quotients = []
    for axis in range(3):
        u = cloud.points[:, axis]
        quotients.append((u @ (op.matrix @ u)) / (u @ u))
    assert all(-2.4 < q < -1.6 for q in quotients)

    # flat grid Laplacian of x^2 + y^2
    ax = np.linspace(0.0, 1.0, 16)
    xx, yy = np.meshgrid(ax, ax)
    grid = PointCloud(
        np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    )
    gop = assemble_lb(grid, k=25)
    u = grid.points[:, 0] ** 2 + grid.points[:, 1] ** 2
    flat_err = np.abs(gop.matrix @ u - 4.0).max()
    assert flat_err <= 1e-4

    # frame invariances on a 600-point sphere
    pts = sphere_cloud(600, seed=32).points
    idx, dist = build_index(PointCloud(pts)).knn_arrays(25)
    frames = build_frames(pts, idx, dist)
    base = assemble_lb_from_frames(frames).matrix.toarray()
    scale = np.abs(base).max()
    flipped = FrameSet(frames.e2, frames.e1, -frames.e3,
                       frames.coords[:, :, ::-1].copy(), -frames.heights,
                       idx, dist)
    flip_err = np.abs(
        assemble_lb_from_frames(flipped).matrix.toarray() - base
    ).max()
    theta = 1.1
    co, si = np.cos(theta), np.sin(theta)
    xs, ys = frames.coords[:, :, 0], frames.coords[:, :, 1]
    rotated = FrameSet(
        co * frames.e1 + si * frames.e2, -si * frames.e1 + co * frames.e2,
        frames.e3, np.stack([co * xs + si * ys, -si * xs + co * ys], axis=2),
        frames.heights, idx, dist,
    )
    rot_err = np.abs(
        assemble_lb_from_frames(rotated).matrix.toarray() - base
    ).max()
    assert flip_err <= 1e-8 * scale
    assert rot_err <= 1e-8 * scale
    report(
        5,
        f"LB suite: poly exactness {poly_err:.1e} (<=1e-9), constant leak "
        f"{leak / row_scale:.1e} (<=1e-8), flat-grid err {flat_err:.1e} "
        f"(<=1e-4), Rayleigh {min(quotients):.2f}..{max(quotients):.2f} "
        f"(in [-2.4,-1.6]), flip/rot invariance {flip_err / scale:.1e}/"
        f"{rot_err / scale:.1e} (<=1e-8)",
    )


def test_criterion_6_projection_identities():
    rng = np.random.default_rng(41)
    w = rng.normal(scale=3.0, size=10000) + 1j * rng.normal(scale=3.0, size=10000)
    p = sphere_cloud(10000, seed=42).points
    errs = [
        np.abs(proj_north(inv_north(w)) - w).max(),
        np.abs(proj_south(inv_south(w)) - w).max(),
        np.abs(inv_north(proj_north(p)) - p).max(),
        np.abs(inv_south(proj_south(p)) - p).max(),
    ]
    composed = proj_south(inv_north(w))
    want = -w.real / np.abs(w) ** 2 + 1j * w.imag / np.abs(w) ** 2
    # the composed value has modulus 1/|w|, so the 1e-12 tolerance is
    # scaled by the value size (absolute 1e-12 is unrepresentable for
    # small |w|: the target itself then exceeds 1e4)
    comp_err = (np.abs(composed - want) / np.maximum(1.0, np.abs(want))).max()
    assert max(errs) <= 1e-12
    assert comp_err <= 1e-12
    report(
        6,
        f"projections: worst round-trip {max(errs):.2e} (<=1e-12) on 1e4 "
        f"inputs, composed identity {comp_err:.2e} relative (<=1e-12)",
    )


def test_criterion_7_hull_empty_halfspace_oracle():
    rng = np.random.default_rng(51)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(12, 501))
        pts = sphere_cloud(n, seed=1000 + trial).points
        faces = convex_hull(pts)
        corners = pts[faces]
        normals = np.cross(
            corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
        )
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ij,ij->i", normals, corners[:, 0])
        above = (pts @ normals.T - offsets).max()
        worst = max(worst, float(above))
        assert above <= 1e-10
    report(
        7,
        f"hull oracle: 200 spherical clouds (n<=500), worst excess "
        f"{worst:.2e} (<=1e-10)",
    )


def test_criterion_8_multilevel_combinatorics(sphere_pipeline):
    _, sphere_map, *_ = sphere_pipeline
    meshes = multilevel(sphere_map, levels=4, base_subdivisions=3)
    counts = [m.n_vertices for m in meshes]
    assert counts == [642, 2562, 10242, 40962, 163842]
    for m in meshes:
        assert m.is_closed()
        assert m.euler_characteristic() == 2
    report(8, f"multilevel: vertex counts {counts}, all closed with chi=2")


def test_criterion_9_topological_noise():
    base = sphere_cloud(5000, seed=61)
    holey = punch_holes(base, 50, hole_radius=0.15, seed=62)
    with pytest.warns(UserWarning, match="did not converge"):
        sphere_map = parameterize(holey)
    mesh = induce_mesh(holey, sphere_map)
    mesh.validate_closed_genus0()
    assert len(np.unique(mesh.faces)) == holey.n
    report(
        9,
        f"topological noise: sphere with 50 holes ({holey.n} points left) "
        "meshes closed, genus-0, all points covered",
    )


def test_criterion_10_quad_meshing(sphere_pipeline):
    from spheremesh import SphericalMap, spherical_delaunay

    cloud, sphere_map, *_ = sphere_pipeline
    # the angle window is stated for the sphere-identity case (the quad
    # template pushed through an exact identity parameterization)
    identity = SphericalMap(
        cloud=cloud, images=cloud.points.copy(), history=[0.0], converged=True,
        delaunay_faces=spherical_delaunay(cloud.points).faces,
    )
    mesh = quad_mesh(identity, 16)
    assert mesh.n_faces == 6 * 16 * 16
    assert mesh.is_closed()
    assert mesh.is_oriented()
    assert mesh.euler_characteristic() == 2
    angles = np.degrees(mesh.corner_angles())
    assert angles.min() >= 60.0
    assert angles.max() <= 120.0
    # the computed map's quad mesh keeps the structural guarantees
    computed = quad_mesh(sphere_map, 16)
    assert computed.is_closed() and computed.is_oriented()
    assert computed.euler_characteristic() == 2
    comp_angles = np.degrees(computed.corner_angles())
    report(
        10,
        f"quad mesh r=16 (identity case): closed, corner angles "
        f"[{angles.min():.2f}, {angles.max():.2f}] deg (within [60, 120]); "
        f"computed-map quads closed, chi=2, angles "
        f"[{comp_angles.min():.2f}, {comp_angles.max():.2f}]",
    )
