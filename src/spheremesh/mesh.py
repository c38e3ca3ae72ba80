"""Indexed surface meshes (triangles or quads) with topology queries."""

import numpy as np

from .errors import MeshError

AREA_TOL = 1e-14  # degenerate face: area <= AREA_TOL * (max |coordinate|)^2


class SurfaceMesh:
    """Vertices plus consistently oriented faces.

    Parameters
    ----------
    vertices : (V, 3) array_like
    faces : (F, 3) or (F, 4) int array_like
        All faces must have the same arity.
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"bad vertex array shape {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] not in (3, 4):
            raise MeshError(f"faces must be triangles or quads, got {self.faces.shape}")
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise MeshError("face index out of range")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def arity(self):
        return self.faces.shape[1]

    def directed_edges(self):
        """(F * arity, 2) array of boundary-loop edges of every face."""
        f = self.faces
        return np.stack(
            [f.ravel(), np.roll(f, -1, axis=1).ravel()], axis=1
        )

    def _edge_keys(self):
        """min * V + max of the two ends of every face side, in (face,
        corner) order: one integer per undirected edge."""
        a, b = self.directed_edges().T
        return np.minimum(a, b) * self.n_vertices + np.maximum(a, b)

    def edges(self):
        """Unique undirected edges, each as a sorted pair."""
        keys = np.unique(self._edge_keys())
        return np.stack(np.divmod(keys, self.n_vertices), axis=1)

    def euler_characteristic(self):
        return self.n_vertices - np.unique(self._edge_keys()).size + self.n_faces

    def edge_face_incidence(self):
        """Undirected edge ids of the face sides, and faces per edge.

        Returns ``(edge_of, counts)``.  ``edge_of[f, e]`` is the id of
        the edge from corner e to corner e + 1 of face f; ids number the
        edges by first occurrence in (face, corner) order.  ``counts[i]``
        is the number of face sides on edge i: 2 on a closed mesh, 1 on
        the boundary of an open one.
        """
        _, first, inverse, counts = np.unique(
            self._edge_keys(), return_index=True, return_inverse=True,
            return_counts=True,
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank[inverse].reshape(self.faces.shape), counts[order]

    def is_closed(self):
        """Every undirected edge has exactly two incident faces."""
        _, counts = np.unique(self._edge_keys(), return_counts=True)
        return bool(np.all(counts == 2))

    def is_oriented(self):
        """Each undirected edge is traversed once per direction."""
        a, b = self.directed_edges().T
        keys = a * self.n_vertices + b
        return np.unique(keys).size == keys.size

    def signed_volume(self):
        """Volume enclosed by the oriented surface (positive = outward)."""
        total = 0.0
        v = self.vertices
        f = self.faces
        for i in range(self.arity - 2):
            a, b, c = f[:, 0], f[:, i + 1], f[:, i + 2]
            total += np.einsum("ij,ij->i", v[a], np.cross(v[b], v[c])).sum()
        return total / 6.0

    def face_areas(self):
        v = self.vertices
        f = self.faces
        area = np.zeros(self.n_faces)
        for i in range(self.arity - 2):
            a, b, c = f[:, 0], f[:, i + 1], f[:, i + 2]
            area += 0.5 * np.linalg.norm(
                np.cross(v[b] - v[a], v[c] - v[a]), axis=1
            )
        return area

    def corner_angles(self):
        """(F, arity) interior angles at each face corner, in radians."""
        v = self.vertices
        f = self.faces
        arity = self.arity
        out = np.empty((self.n_faces, arity))
        for e in range(arity):
            p = v[f[:, e]]
            nxt = v[f[:, (e + 1) % arity]] - p
            prv = v[f[:, (e - 1) % arity]] - p
            cross = np.linalg.norm(np.cross(nxt, prv), axis=1)
            dot = np.einsum("ij,ij->i", nxt, prv)
            out[:, e] = np.arctan2(cross, dot)
        return out

    def validate_closed_genus0(self):
        """Raise MeshError unless closed, genus-0, consistently oriented,
        outward, and free of degenerate faces."""
        if not self.is_closed():
            raise MeshError("mesh is not closed (an edge lacks two faces)")
        if not self.is_oriented():
            raise MeshError("mesh orientation is inconsistent")
        chi = self.euler_characteristic()
        if chi != 2:
            raise MeshError(f"Euler characteristic {chi} != 2 (not genus-0)")
        if self.signed_volume() <= 0:
            raise MeshError("mesh is oriented inward (negative volume)")
        scale = float(np.abs(self.vertices).max()) or 1.0
        if self.n_faces and self.face_areas().min() <= AREA_TOL * scale * scale:
            raise MeshError("mesh contains a degenerate (zero-area) face")
