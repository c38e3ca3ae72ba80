"""Meshing a parameterized cloud: spherical Delaunay triangulation,
induced triangulations, interpolation through the parameterization,
quad meshes from a cube-sphere template, and multilevel icosphere
representations.
"""

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .cloud import row_cross, row_dot
from .errors import MeshError
from .mesh import SurfaceMesh, first_occurrence_ids

_BARY_TOL = 1e-10
_VERTEX_SNAP = 1e-12
_CHUNK = 1024  # samples per batched locate and blend step; bounds their temporaries
# walk rounds before the unresolved samples go to locate: remesh walks
# on blob maps end within 7-11 rounds, and multilevel times are flat
# for caps of 8-64
_WALK_ROUNDS = 12
_DEGENERATE = ("coincide", "collinear", "coplanar")  # by rank of the point set


def convex_hull(points):
    """Faces of the convex hull (qhull), counterclockwise seen from outside.

    The face order is a function of the triangles alone: each face
    starts at its smallest id, and the rows ascend by their sorted ids.
    Reversing every winding keeps both rules, so a mirrored point set
    gets ``faces[:, [0, 2, 1]]`` although qhull lists its facets in an
    order of its own.  Points strictly inside the hull, or on a facet
    without being one of its corners, are left out of the faces.
    Raises MeshError for fewer than 4 points or a coincident, collinear
    or coplanar point set.
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
    normals = row_cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = np.einsum("ij,ij->i", normals, hull.equations[:, :3]) < 0
    faces[inward] = faces[inward, ::-1]
    # start each face at its smallest id (the ids of a face are
    # distinct), then order the rows by their sorted ids: min, middle
    # (the sum less min and max), max
    f0, f1, f2 = faces.T
    low = np.minimum(np.minimum(f0, f1), f2)
    high = np.maximum(np.maximum(f0, f1), f2)
    key = (low * n + f0 + f1 + f2 - low - high) * n + high
    first = (f1 == low) + 2 * (f2 == low)
    faces = np.take_along_axis(faces, (first[:, None] + np.arange(3)) % 3, 1)
    return faces[np.argsort(key)]


def spherical_delaunay(points):
    """Delaunay triangulation of unit-sphere points.

    Realized as the boundary of the 3D convex hull, which coincides
    with the spherical Delaunay triangulation for points on a sphere.
    Every input point must end up a hull vertex.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise MeshError("need at least 4 points on the sphere")
    if np.abs(np.sqrt(row_dot(pts, pts)) - 1.0).max() > 1e-6:
        raise MeshError("points are not on the unit sphere")
    faces = convex_hull(pts)
    missing = np.flatnonzero(np.bincount(faces.ravel(), minlength=len(pts)) == 0)
    if missing.size:
        raise MeshError(
            f"{missing.size} points (e.g. {missing[0]}) were absorbed by "
            "the hull; coincident or degenerate spherical positions"
        )
    return SurfaceMesh(pts, faces)


def sphere_triangulation(sphere_map):
    """Spherical Delaunay mesh of a parameterization: the images with
    the map's ``delaunay_faces``, which ``parameterize`` and
    ``read_map`` keep, so induced and spherical meshes share one
    connectivity.  Raises MeshError when the faces leave a point out."""
    faces = sphere_map.delaunay_faces
    if not np.bincount(faces.ravel(), minlength=sphere_map.n).all():
        raise MeshError("cached triangulation does not cover all points")
    return SurfaceMesh(sphere_map.images, faces)


def induce_mesh(cloud, sphere_map):
    """Triangulation of the original cloud induced by its spherical
    parameterization (same connectivity as the spherical Delaunay mesh).
    Raises MeshError unless ``cloud`` has the points of the map's cloud."""
    points = sphere_map.cloud.points
    if cloud.points is not points and not np.array_equal(cloud.points, points):
        raise MeshError("the cloud is not the one the spherical map was computed for")
    return SurfaceMesh(cloud.points, sphere_triangulation(sphere_map).faces)


def _face_table(points, faces):
    """One (F, 13) row per face (a, b, c): the normal
    n = (b - a) x (c - a) in columns 0-2, the plane offset n . a in
    column 3, the corner a in 4-6 and the covectors
    u = ((c - a) x n) / |n|^2 in 7-9 and v = (n x (b - a)) / |n|^2 in
    10-12, so that a ray test gathers a face's data once."""
    a, b, c = (points[corner] for corner in faces.T)
    b -= a
    c -= a
    n = row_cross(b, c)
    table = np.empty((len(faces), 13))
    table[:, :3] = n
    table[:, 3] = np.einsum("ij,ij->i", n, a)
    table[:, 4:7] = a
    del a  # at most four (F, 3) arrays beside the table at any time
    nn = np.einsum("ij,ij->i", n, n)
    row_cross(c, n, out=table[:, 7:10])
    row_cross(n, b, out=table[:, 10:])
    table[:, 7:] /= nn[:, None]
    return table


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
    returns; both contain it.  Each exit face is ray-tested once, in
    chunks of ``_CHUNK`` samples: the ray meets the face's plane at x,
    and the weights of b and c are (x - a_f) . u_f and (x - a_f) . v_f
    with the precomputed covectors u_f = ((c - a) x n_f) / |n_f|^2 and
    v_f = (n_f x (b - a)) / |n_f|^2.  A sample whose exit face fails the
    strict test (its ray misses the hull, as on a map crowded into one
    cap, whose faces with d_f <= 0 stay out of the tree) keeps that face
    with its weights clamped and is counted in ``snapped``.

    ``walk`` locates samples that each come with a start face near
    their exit face, as the finer levels of ``multilevel`` do, by a
    visibility walk on the hull (Devillers, Pion & Teillaud, "Walking in
    a triangulation", IJFCS 2002): a sample whose current face fails the
    ray test steps across the side opposite its most negative weight.
    A ray that hits a face hits the exit face, on any hull, so a walk
    stops only there; samples still walking after ``_WALK_ROUNDS``
    rounds, as the rays that miss a hull leaving out the origin do, go
    to ``locate``.
    """

    def __init__(self, sphere_map):
        self.images = np.asarray(sphere_map.images, dtype=np.float64)
        self.cloud_points = sphere_map.cloud.points
        self.mesh = sphere_triangulation(sphere_map)
        self.snapped = 0
        self._neighbours = None  # face adjacency, built by the first walk
        self._table = _face_table(self.images, self.mesh.faces)
        normals, offsets = self._table[:, :3], self._table[:, 3]
        self._exit_ids = np.flatnonzero(offsets > 0)
        q = normals[self._exit_ids] / offsets[self._exit_ids, None]
        qq = np.einsum("ij,ij->i", q, q)
        # larger leaves split at midpoints answer the exact queries
        # faster than the default tree, with the same nearest faces
        self._dual_tree = cKDTree(
            np.column_stack([q, np.sqrt(qq.max() - qq)]),
            leafsize=32, balanced_tree=False,
        )

    def _ray_test(self, face_ids, s):
        """Central rays of samples s (m, 3) against faces face_ids (m,)
        or (m, k): returns the hit mask of face_ids' shape and the
        weights with a trailing axis of 3.  Every dot product is summed
        coordinate by coordinate, so a (sample, face) pair rounds the
        same in either shape.  The faces' rows of the table are gathered
        once."""
        s = s.reshape(s.shape[:1] + (1,) * (face_ids.ndim - 1) + (3,))
        face = self._table[face_ids]
        denom = row_dot(face[..., :3], s)
        ok = denom > 0
        t = face[..., 3] / np.where(ok, denom, 1.0)
        x = t[..., None] * s - face[..., 4:7]
        beta = row_dot(x, face[..., 7:10])
        gamma = row_dot(x, face[..., 10:])
        alpha = 1.0 - beta - gamma
        hit = ok & (t > 0) & (np.minimum(np.minimum(alpha, beta), gamma) >= -_BARY_TOL)
        return hit, np.stack([alpha, beta, gamma], axis=-1)

    def locate(self, samples):
        """(face id, barycentric weights) per row of an (m, 3) array of
        nonzero finite directions; any other input raises MeshError."""
        s = _directions(samples)
        faces = np.empty(len(s), dtype=np.intp)
        bary = np.empty((len(s), 3))
        query = np.zeros((min(_CHUNK, len(s)), 4))  # (s, 0) rows of the lifted space
        for lo in range(0, len(s), _CHUNK):
            chunk = s[lo:lo + _CHUNK]
            query[:len(chunk), :3] = chunk
            _, nearest = self._dual_tree.query(query[:len(chunk)])
            exit_face = self._exit_ids[nearest]
            hit, w = self._ray_test(exit_face, chunk)
            miss = np.flatnonzero(~hit)
            clamped = np.clip(w[miss], 0.0, None)
            w[miss] = clamped / clamped.sum(axis=1, keepdims=True)
            self.snapped += miss.size
            faces[lo:lo + len(chunk)] = exit_face
            bary[lo:lo + len(chunk)] = w
        return faces, bary

    def walk(self, samples, start):
        """``locate`` for samples that each come with a face near their
        exit face, ``start`` (m,).  Each round ray-tests the unresolved
        samples against their current face, ``_CHUNK`` at a time, and
        moves a sample that fails across the side opposite its most
        negative weight.  The exit face is the only face a ray can hit,
        so a hit is the face ``locate`` returns (up to a sample on a
        shared edge), with the same weights.  Samples unresolved after
        ``_WALK_ROUNDS`` rounds go to ``locate``, which alone snaps."""
        s = _directions(samples)
        if self._neighbours is None:
            # the face across side e (corner e to e + 1) of each face
            edge_of, _ = self.mesh.edge_face_incidence()
            sides = np.argsort(edge_of.ravel(), kind="stable").reshape(-1, 2)
            self._neighbours = np.empty(edge_of.size, dtype=np.intp)
            self._neighbours[sides] = sides[:, ::-1] // 3
        faces = np.array(start, dtype=np.intp)
        bary = np.empty((len(s), 3))
        todo = np.arange(len(s))
        for _ in range(_WALK_ROUNDS):
            if not todo.size:
                break
            left = []
            for lo in range(0, todo.size, _CHUNK):
                ids = todo[lo:lo + _CHUNK]
                hit, w = self._ray_test(faces[ids], s[ids])
                bary[ids[hit]] = w[hit]
                ids, w = ids[~hit], w[~hit]
                side = (w.argmin(axis=1) + 1) % 3
                faces[ids] = self._neighbours[3 * faces[ids] + side]
                left.append(ids)
            todo = np.concatenate(left)
        if todo.size:
            faces[todo], bary[todo] = self.locate(np.asarray(samples)[todo])
        return faces, bary

    def positions(self, faces, bary):
        """Cloud-space positions of located samples, blended ``_CHUNK``
        samples at a time so that no (m, 3, 3) array of face corners is
        formed."""
        out = np.empty((len(faces), 3))
        for lo in range(0, len(faces), _CHUNK):
            w = bary[lo:lo + _CHUNK]
            verts = self.mesh.faces[faces[lo:lo + _CHUNK]]
            part = out[lo:lo + len(w)]
            np.einsum("ij,ijk->ik", w, self.cloud_points[verts], out=part)
            # a sample sitting on a parameterization image returns that
            # cloud point bit-exactly; weights sum to 1 and none is below
            # -_BARY_TOL, so at most one per sample reaches the snap
            rows, corner = np.nonzero(w >= 1.0 - _VERTEX_SNAP)
            part[rows] = self.cloud_points[verts[rows, corner]]
        return out

    def __call__(self, samples):
        """Cloud-space positions of unit-sphere samples."""
        return self.positions(*self.locate(samples))


def _directions(samples):
    """Unit rows of an (m, 3) array of nonzero finite directions; any
    other input raises MeshError.  A row whose squared length underflows
    to 0 or overflows is first divided by its largest absolute
    component; every other row is divided by its length alone."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != 3:
        raise MeshError(f"samples must be an (m, 3) array, got shape {s.shape}")
    with np.errstate(over="ignore"):
        norm = np.sqrt(row_dot(s, s))
    odd = np.flatnonzero(~((norm > 0.0) & (norm < np.inf)))
    if odd.size:
        row = np.abs(s[odd])
        scale = np.maximum(np.maximum(row[:, 0], row[:, 1]), row[:, 2])
        bad = odd[~((scale > 0.0) & (scale < np.inf))]
        if bad.size:
            raise MeshError(f"sample {bad[0]} {s[bad[0]]} is zero-length or not finite")
        unit = s[odd] / scale[:, None]
        s = s.copy()
        s[odd] = unit
        norm[odd] = np.sqrt(row_dot(unit, unit))
    return s / norm[:, None]


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
    ids, first, _ = first_occurrence_ids(code)
    p = np.tan(0.25 * np.pi * keys[first].astype(np.float64) / r)
    # a matmul row product rounds like the dot product inside
    # np.linalg.norm of one row; a sum of squares does not
    verts = p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    return SurfaceMesh(verts, ids.reshape(-1, 4))


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
    From 3 subdivisions on the mesh is not exactly mirror-symmetric:
    coordinates that are 0 in theory carry rounding residues of the
    smoothing and renormalization (13 up to 3.5e-18 at 3, 413 up to
    1.3e-18 at 6), which print in exponent form.
    """
    if subdivisions < 0:
        raise MeshError(f"subdivisions must be nonnegative, got {subdivisions}")
    verts = ICOSAHEDRON_VERTICES / np.sqrt(
        row_dot(ICOSAHEDRON_VERTICES, ICOSAHEDRON_VERTICES)
    )[:, None]
    mesh = SurfaceMesh(verts, ICOSAHEDRON_FACES)
    for _ in range(subdivisions):
        mesh = _subdivide_sphere(mesh)
    return mesh


def _subdivide_sphere(mesh):
    """One Loop subdivision with the vertices pushed back onto the unit
    sphere: the step between consecutive icospheres."""
    mesh = loop_subdivide(mesh)
    mesh.vertices /= np.sqrt(row_dot(mesh.vertices, mesh.vertices))[:, None]
    return mesh


def loop_subdivide(mesh):
    """One round of Loop subdivision of a closed triangle mesh.

    The smoothed old vertices come first, then one new vertex per edge
    in edge-id order (``edge_face_incidence``).  Face i splits into new
    faces 4i .. 4i + 3: its three corner triangles, then the middle one.
    """
    if mesh.arity != 3:
        raise MeshError("loop subdivision needs a triangle mesh")
    edge_of, counts = mesh.edge_face_incidence()
    if np.any(counts != 2):
        raise MeshError("loop subdivision needs a closed mesh")
    verts = _loop_vertices(mesh.vertices, mesh.faces, edge_of)
    # corner triangle c is (corner c, edge point c, edge point c - 1);
    # the edge points follow the old vertices
    edge_of += mesh.n_vertices
    new_faces = np.empty((mesh.n_faces, 4, 3), dtype=np.intp)
    new_faces[:, :3, 0] = mesh.faces
    new_faces[:, :3, 1] = edge_of
    new_faces[:, 0, 2] = edge_of[:, 2]
    new_faces[:, 1:3, 2] = edge_of[:, :2]
    new_faces[:, 3] = edge_of
    return SurfaceMesh(verts, new_faces.reshape(-1, 3))


def _loop_vertices(v, f, edge_of):
    """Loop's smoothed old vertices, then one point per edge in edge-id
    order.  Both are written into the output, so that the working set
    stays near the size of what is returned."""
    # the two face sides of each edge, first occurrence first; the
    # corner opposite side e of a face is e + 2
    sides = np.argsort(edge_of.ravel(), kind="stable").reshape(-1, 2)
    a = f.ravel()[sides[:, 0]]
    b = np.roll(f, -1, axis=1).ravel()[sides[:, 0]]
    opposite = np.roll(f, 1, axis=1).ravel()[sides]
    out = np.empty((len(v) + len(a), 3))
    for axis in range(3):
        out[len(v):, axis] = 0.375 * (v[a, axis] + v[b, axis]) + 0.125 * (
            v[opposite[:, 0], axis] + v[opposite[:, 1], axis]
        )

    # even-vertex smoothing with the valence-dependent beta; each ring is
    # summed in ascending neighbor order, the order of the sorted
    # directed-edge keys center * V + neighbor
    center, ring = np.divmod(np.sort(np.concatenate([a * len(v) + b, b * len(v) + a])), len(v))
    n = np.bincount(center, minlength=len(v))
    if not n.all():
        raise MeshError("loop subdivision needs every vertex on a face")
    ring_sum = np.column_stack([
        np.bincount(center, weights=v[ring, axis], minlength=len(v)) for axis in range(3)
    ])
    beta = (0.625 - (0.375 + 0.25 * np.cos(2.0 * np.pi / n)) ** 2) / n
    out[:len(v)] = (1.0 - n * beta)[:, None] * v + beta[:, None] * ring_sum
    return out


def multilevel(sphere_map, levels, base_subdivisions=3):
    """Multilevel cloud representations from progressively subdivided
    icospheres pushed through the parameterization.

    With the default 3 pre-subdivisions the vertex counts run
    642, 2562, 10242, 40962, 163842, ...; ``levels`` counts additional
    subdivisions beyond the base, so levels + 1 meshes come back.  The
    base level is located with ``SphereInterpolator.locate``.  Each
    finer level walks from its parent's faces (``SphereInterpolator.walk``):
    an old vertex starts at the face it was found in, and both edge
    points of a corner triangle at the face of that triangle's old
    corner.  The walk returns the faces and weights ``locate`` would.
    """
    if levels < 0:
        raise MeshError("levels must be nonnegative")
    sphere = icosphere(base_subdivisions)
    interp = SphereInterpolator(sphere_map)
    faces, bary = interp.locate(sphere.vertices)
    out = [SurfaceMesh(interp.positions(faces, bary), sphere.faces)]
    for _ in range(levels):
        sphere = _subdivide_sphere(sphere)
        # faces 4i .. 4i + 2 are (old vertex, edge point, edge point):
        # each starts at the face its old vertex was located in
        corners = sphere.faces.reshape(-1, 4, 3)[:, :3]
        start = np.empty(sphere.n_vertices, dtype=np.intp)
        start[corners] = faces[corners[..., :1]]
        faces, bary = interp.walk(sphere.vertices, start)
        out.append(SurfaceMesh(interp.positions(faces, bary), sphere.faces))
    return out
