"""Meshing a parameterized cloud: spherical Delaunay triangulation,
induced triangulations, interpolation through the parameterization,
quad meshes from a cube-sphere template, and multilevel icosphere
representations.
"""

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import MeshError
from .mesh import SurfaceMesh

_BARY_TOL = 1e-10
_VERTEX_SNAP = 1e-12
_CHUNK = 1024  # samples per batched locate step; bounds its temporaries
_DEGENERATE = ("coincide", "collinear", "coplanar")  # by rank of the point set


def convex_hull(points):
    """Faces of the convex hull (qhull), counterclockwise seen from outside.

    Points strictly inside the hull, or on a facet without being one of
    its corners, are left out of the faces.  Raises MeshError for fewer
    than 4 points or a coincident, collinear or coplanar point set.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 4:
        raise MeshError(f"convex hull needs at least 4 points, got {n}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        rank = np.linalg.matrix_rank(pts - pts[0])
        if rank < 3:
            raise MeshError(
                f"degenerate point set: all points {_DEGENERATE[rank]}"
            ) from exc
        raise MeshError(f"qhull failed: {exc}") from exc
    faces = hull.simplices.astype(np.intp)
    corners = pts[faces]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = np.einsum("ij,ij->i", normals, hull.equations[:, :3]) < 0
    faces[inward] = faces[inward, ::-1]
    return faces


def spherical_delaunay(points):
    """Delaunay triangulation of unit-sphere points.

    Realized as the boundary of the 3D convex hull, which coincides
    with the spherical Delaunay triangulation for points on a sphere.
    Every input point must end up a hull vertex.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise MeshError("need at least 4 points on the sphere")
    norms = np.linalg.norm(pts, axis=1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise MeshError("points are not on the unit sphere")
    faces = convex_hull(pts)
    used = np.unique(faces)
    if used.size != len(pts):
        missing = np.setdiff1d(np.arange(len(pts)), used)
        raise MeshError(
            f"{missing.size} points (e.g. {missing[0]}) were absorbed by "
            "the hull; coincident or degenerate spherical positions"
        )
    return SurfaceMesh(pts, faces)


def sphere_triangulation(sphere_map):
    """Spherical Delaunay mesh of a parameterization, reusing the hull
    the pipeline already built when available (so induced and spherical
    meshes always share one connectivity)."""
    faces = sphere_map.delaunay_faces
    if faces is None:
        return spherical_delaunay(sphere_map.images)
    if np.unique(faces).size != sphere_map.n:
        raise MeshError("cached triangulation does not cover all points")
    return SurfaceMesh(sphere_map.images, faces)


def induce_mesh(cloud, sphere_map):
    """Triangulation of the original cloud induced by its spherical
    parameterization (same connectivity as the spherical Delaunay mesh)."""
    return SurfaceMesh(cloud.points, sphere_triangulation(sphere_map).faces)


class SphereInterpolator:
    """Maps unit-sphere samples to cloud-space positions.

    A sample direction is located on the parameterization's spherical
    Delaunay hull by its central ray, and its barycentric weights
    transfer to the corresponding original cloud points.  On a hull
    around the origin the ray from the origin along s leaves through
    the face that maximises n_f . s / d_f, with d_f = n_f . a_f the
    face's plane offset (polar duality).  Each face with d_f > 0 gets
    the dual point q_f = n_f / d_f, lifted to (q_f, sqrt(M - |q_f|^2))
    with M = max |q_f|^2; then |Q_f - (s, 0)|^2 = M + 1 - 2 q_f . s, so
    one exact nearest-neighbour query of (s, 0) in a k-d tree of the
    lifted points finds that exit face (Bachrach et al., RecSys 2014).
    A sample on an edge shared by two faces takes whichever the query
    returns; both contain it.  The exit face is ray-tested in chunks of
    ``_CHUNK`` samples.  A sample whose exit face fails the strict test
    (its ray misses the hull, as on a map crowded into one cap, whose
    faces with d_f <= 0 stay out of the tree) keeps that face with its
    weights clamped and is counted in ``snapped``.
    """

    def __init__(self, sphere_map):
        self.images = np.asarray(sphere_map.images, dtype=np.float64)
        self.cloud_points = sphere_map.cloud.points
        self.mesh = sphere_triangulation(sphere_map)
        self.snapped = 0
        f = self.mesh.faces
        self._corners = self.images[f]  # (F, 3, 3)
        a, b, c = self._corners[:, 0], self._corners[:, 1], self._corners[:, 2]
        self._normals = np.cross(b - a, c - a)
        self._nn = np.einsum("ij,ij->i", self._normals, self._normals)
        self._offsets = np.einsum("ij,ij->i", self._normals, a)
        self._exit_ids = np.flatnonzero(self._offsets > 0)
        q = self._normals[self._exit_ids] / self._offsets[self._exit_ids, None]
        qq = np.einsum("ij,ij->i", q, q)
        self._dual_tree = cKDTree(np.column_stack([q, np.sqrt(qq.max() - qq)]))

    def _bary(self, face_ids, x):
        """Barycentric coordinates of plane points x (..., 3) in the
        faces face_ids (...)."""
        corners = self._corners[face_ids]
        a, b, c = corners[..., 0, :], corners[..., 1, :], corners[..., 2, :]
        n = self._normals[face_ids]
        nn = self._nn[face_ids]
        beta = np.einsum("...j,...j->...", np.cross(x - a, c - a), n) / nn
        gamma = np.einsum("...j,...j->...", np.cross(b - a, x - a), n) / nn
        return np.stack([1.0 - beta - gamma, beta, gamma], axis=-1)

    def _ray_test(self, face_ids, s):
        """Central rays of samples s (m, 3) against faces face_ids (m, k):
        returns the (m, k) hit mask and the (m, k, 3) weights."""
        denom = np.matmul(self._normals[face_ids], s[:, :, None])[..., 0]
        ok = denom > 0
        t = self._offsets[face_ids] / np.where(ok, denom, 1.0)
        bary = self._bary(face_ids, t[..., None] * s[:, None, :])
        hit = ok & (t > 0) & (bary.min(axis=-1) >= -_BARY_TOL)
        return hit, bary

    def locate(self, samples):
        """(face id, barycentric weights) per unit-sphere sample."""
        s = np.asarray(samples, dtype=np.float64)
        s = s / np.linalg.norm(s, axis=1, keepdims=True)
        faces = np.empty(len(s), dtype=np.intp)
        bary = np.empty((len(s), 3))
        for lo in range(0, len(s), _CHUNK):
            chunk = s[lo:lo + _CHUNK]
            _, nearest = self._dual_tree.query(np.pad(chunk, ((0, 0), (0, 1))))
            exit_face = self._exit_ids[nearest]
            # the face twice: a one-column matmul takes another kernel
            # and rounds differently from the multi-column test
            hit, w = self._ray_test(np.column_stack([exit_face, exit_face]), chunk)
            hit, w = hit[:, 0], w[:, 0]
            miss = np.flatnonzero(~hit)
            clamped = np.clip(w[miss], 0.0, None)
            w[miss] = clamped / clamped.sum(axis=1, keepdims=True)
            self.snapped += miss.size
            faces[lo:lo + len(chunk)] = exit_face
            bary[lo:lo + len(chunk)] = w
        return faces, bary

    def __call__(self, samples):
        """Cloud-space positions of unit-sphere samples."""
        faces, bary = self.locate(samples)
        verts = self.mesh.faces[faces]
        out = np.einsum(
            "ij,ijk->ik", bary, self.cloud_points[verts]
        )
        # a sample sitting on a parameterization image returns that
        # cloud point bit-exactly; weights sum to 1 and none is below
        # -_BARY_TOL, so at most one per sample reaches the snap
        rows, corner = np.nonzero(bary >= 1.0 - _VERTEX_SNAP)
        out[rows] = self.cloud_points[verts[rows, corner]]
        return out


def interpolate_to_cloud(sphere_map, samples):
    """One-shot interpolation of sphere samples onto the cloud."""
    return SphereInterpolator(sphere_map)(samples)


def cube_sphere(resolution):
    """Equiangular cube-sphere quad template on the unit sphere.

    6 * resolution^2 quads over 6 * resolution^2 + 2 vertices, all
    quads oriented outward.
    """
    if resolution < 1:
        raise MeshError("resolution must be at least 1")
    r = resolution
    # (axis, sign, u axis, v axis) per cube face, so that u x v points
    # outward
    sides = np.array([
        (0, 1, 1, 2), (0, -1, 2, 1),
        (1, 1, 2, 0), (1, -1, 0, 2),
        (2, 1, 0, 1), (2, -1, 1, 0),
    ])
    steps = np.arange(-r, r + 1, 2)
    j, kk = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    du = np.array([0, 1, 1, 0])
    dv = np.array([0, 0, 1, 1])
    # integer key of every quad corner, (side, j, k, corner, xyz) in the
    # order quads and corners are emitted
    keys = np.zeros((6, r, r, 4, 3), dtype=np.int64)
    for side, (axis, sign, ua, va) in enumerate(sides):
        keys[side, ..., axis] = sign * r
        keys[side, ..., ua] = steps[j[..., None] + du]
        keys[side, ..., va] = steps[kk[..., None] + dv]
    keys = keys.reshape(-1, 3)
    width = 2 * r + 1
    code = ((keys[:, 0] + r) * width + keys[:, 1] + r) * width + keys[:, 2] + r
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    # number the vertices in first-seen order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    p = np.tan(0.25 * np.pi * keys[first[order]].astype(np.float64) / r)
    # a matmul row product rounds like the dot product inside
    # np.linalg.norm of one row; a sum of squares does not
    verts = p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    return SurfaceMesh(verts, rank[inverse].reshape(-1, 4))


def quad_mesh(sphere_map, resolution):
    """Closed quad mesh over the cloud via the cube-sphere template."""
    template = cube_sphere(resolution)
    positions = interpolate_to_cloud(sphere_map, template.vertices)
    return SurfaceMesh(positions, template.faces)


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
ICOSAHEDRON_VERTICES = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=np.float64,
)
ICOSAHEDRON_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.intp,
)


def icosphere(subdivisions=0):
    """Loop-subdivided icosahedron renormalized to the unit sphere.

    Vertex counts run 12, 42, 162, 642, 2562, ... (x4 faces per level).
    """
    verts = ICOSAHEDRON_VERTICES / np.linalg.norm(
        ICOSAHEDRON_VERTICES, axis=1, keepdims=True
    )
    mesh = SurfaceMesh(verts, ICOSAHEDRON_FACES)
    for _ in range(subdivisions):
        mesh = _subdivide_sphere(mesh)
    return mesh


def _subdivide_sphere(mesh):
    """One Loop subdivision with the vertices pushed back onto the unit
    sphere: the step between consecutive icospheres."""
    mesh = loop_subdivide(mesh)
    return SurfaceMesh(
        mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True),
        mesh.faces,
    )


def loop_subdivide(mesh):
    """One round of Loop subdivision of a closed triangle mesh.

    The smoothed old vertices come first, then one new vertex per edge
    in edge-id order (``edge_face_incidence``).  Face i splits into new
    faces 4i .. 4i + 3: its three corner triangles, then the middle one.
    """
    if mesh.arity != 3:
        raise MeshError("loop subdivision needs a triangle mesh")
    v = mesh.vertices
    f = mesh.faces
    edge_of, counts = mesh.edge_face_incidence()
    if np.any(counts != 2):
        raise MeshError("loop subdivision needs a closed mesh")

    # the two face sides of each edge, first occurrence first; the
    # corner opposite side e of a face is e + 2
    sides = np.argsort(edge_of.ravel(), kind="stable").reshape(-1, 2)
    a = f.ravel()[sides[:, 0]]
    b = np.roll(f, -1, axis=1).ravel()[sides[:, 0]]
    opposite = np.roll(f, 1, axis=1).ravel()[sides]
    edge_points = 0.375 * (v[a] + v[b]) + 0.125 * (
        v[opposite[:, 0]] + v[opposite[:, 1]]
    )

    # even-vertex smoothing with the valence-dependent beta; each ring is
    # summed in ascending neighbor order
    center = np.concatenate([a, b])
    ring = np.concatenate([b, a])
    order = np.lexsort((ring, center))
    n = np.bincount(center, minlength=len(v))
    if not n.all():
        raise MeshError("loop subdivision needs every vertex on a face")
    ring_sum = np.zeros_like(v)
    np.add.at(ring_sum, center[order], v[ring[order]])
    beta = (0.625 - (0.375 + 0.25 * np.cos(2.0 * np.pi / n)) ** 2) / n
    smoothed = (1.0 - n * beta)[:, None] * v + beta[:, None] * ring_sum

    ab, bc, ca = (len(v) + edge_of).T
    p, q, r = f.T
    new_faces = np.stack(
        [p, ab, ca, q, bc, ab, r, ca, bc, ab, bc, ca], axis=1
    ).reshape(-1, 3)
    return SurfaceMesh(np.vstack([smoothed, edge_points]), new_faces)


def multilevel(sphere_map, levels, base_subdivisions=3):
    """Multilevel cloud representations from progressively subdivided
    icospheres pushed through the parameterization.

    With the default 3 pre-subdivisions the vertex counts run
    642, 2562, 10242, 40962, 163842, ...; ``levels`` counts additional
    subdivisions beyond the base, so levels + 1 meshes come back.
    """
    if levels < 0:
        raise MeshError("levels must be nonnegative")
    interp = SphereInterpolator(sphere_map)
    sphere = icosphere(base_subdivisions)
    out = []
    for level in range(levels + 1):
        out.append(SurfaceMesh(interp(sphere.vertices), sphere.faces))
        if level < levels:
            sphere = _subdivide_sphere(sphere)
    return out
