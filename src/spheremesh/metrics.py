"""Mesh and parameterization quality metrics: per-corner angle
distortion, the Delaunay ratio, and approximated mean curvature."""

from dataclasses import dataclass

import numpy as np

from .cloud import build_index
from .errors import MeshError
from .laplacian import (
    DEFAULT_K, _derivatives, _graph_metric, _height_fit, stencil_blocks,
)
from .weights import Weight

DELAUNAY_SLACK = 1e-12


@dataclass
class QualityReport:
    """Summary of a meshing run."""

    angle_diffs: np.ndarray  # per-corner |delta| in degrees
    mean_abs_delta: float
    sd_abs_delta: float
    delaunay_ratio: float
    mean_curvature: np.ndarray = None

    def as_dict(self):
        """JSON-ready summary (angles in degrees, curvature per vertex)."""
        out = {
            "mean_abs_delta": self.mean_abs_delta,
            "sd_abs_delta": self.sd_abs_delta,
            "delaunay_ratio": self.delaunay_ratio,
            "corner_count": int(self.angle_diffs.size),
        }
        if self.mean_curvature is not None:
            out["mean_curvature"] = [float(h) for h in self.mean_curvature]
        return out


def angle_distortion(source_mesh, sphere_mesh):
    """Per-corner absolute angle differences between two meshes sharing
    connectivity, in degrees, plus their mean and standard deviation."""
    if source_mesh.faces.shape != sphere_mesh.faces.shape or not np.array_equal(
        source_mesh.faces, sphere_mesh.faces
    ):
        raise MeshError("angle distortion needs identical connectivity")
    diffs = np.degrees(
        np.abs(source_mesh.corner_angles() - sphere_mesh.corner_angles())
    ).ravel()
    return diffs, float(diffs.mean()), float(diffs.std())


def delaunay_ratio(mesh):
    """Fraction of interior edges whose opposite angles sum to at most pi."""
    if mesh.arity != 3:
        raise MeshError("delaunay ratio is defined for triangle meshes")
    edge_of, counts = mesh.edge_face_incidence()
    # the angle opposite side e of a triangle sits at corner e + 2; bincount
    # adds each edge's two angles in (face, corner) order
    opposite = np.roll(mesh.corner_angles(), 1, axis=1)
    opp = np.bincount(edge_of.ravel(), weights=opposite.ravel(), minlength=counts.size)
    interior = counts == 2  # boundary edges of an open patch are skipped
    total = int(np.count_nonzero(interior))
    if total == 0:
        raise MeshError("mesh has no interior edges")
    good = int(np.count_nonzero(opp[interior] <= np.pi + DELAUNAY_SLACK))
    return good / total


def mean_curvature_from_coefficients(coefficients):
    """Graph mean curvature from degree-2 fit coefficients (n, 6).

    H = ((1+q^2) r - 2 p q s + (1+p^2) t) / (2 W^3) with p, q the fitted
    first and r, s, t the fitted second derivatives.  The sign follows
    the arbitrary PCA normal, so callers usually take |H|.
    """
    w2, k = _graph_metric(*_derivatives(np.asarray(coefficients)))
    return k / (2.0 * w2 * np.sqrt(w2))


def mean_curvature(cloud, k=DEFAULT_K):
    """Approximated mean curvature at every cloud point (model units).

    The stencils are found and fitted on ``cloud.normalized()``, as
    for the LB operator, and the curvature is mapped back once
    (uniform scaling by 1/sigma multiplies it by sigma).
    """
    normalized, _, radius = cloud.normalized()
    curvature = []
    for frames in stencil_blocks(build_index(normalized), k):
        coeffs, _, _ = _height_fit(
            frames.coords, frames.neighbor_dists, frames.heights,
            frames.neighbor_ids[:, 0], Weight("proposed"),
        )
        curvature.append(mean_curvature_from_coefficients(coeffs))
    return np.concatenate(curvature) / radius


def quality_report(source_mesh, sphere_mesh, curvature=None):
    """Bundle the standard metrics for a meshing run."""
    diffs, mean, sd = angle_distortion(source_mesh, sphere_mesh)
    return QualityReport(
        angle_diffs=diffs,
        mean_abs_delta=mean,
        sd_abs_delta=sd,
        delaunay_ratio=delaunay_ratio(source_mesh),
        mean_curvature=curvature,
    )
