"""File ingestion and serialization.

Clouds read from XYZ (ASCII triples, ``#`` comments), PLY (ASCII or
binary little-endian vertices, extra properties ignored) and OBJ
(v-lines; faces ignored with a warning).  Meshes write to OBJ or ASCII
PLY and round-trip with identical topology.  Floats serialize with 17
significant digits, so writes are bit-reproducible.

Every writer formats its vertex, face and map rows in blocks of
``_BLOCK_ROWS`` rows: one ``%`` over a block's values, one write per
block, with the same bytes as one formatted line per row.  Reads still
parse line by line.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud, find_duplicate
from .errors import FileFormatError
from .mesh import SurfaceMesh

FLOAT_FMT = "%.17g"
_XYZ_ROW = f"{FLOAT_FMT} {FLOAT_FMT} {FLOAT_FMT}\n"
_BLOCK_ROWS = 4096  # rows formatted per write; bounds the temporaries

_PLY_SCALARS = {
    "char": ("b", 1), "uchar": ("B", 1), "int8": ("b", 1), "uint8": ("B", 1),
    "short": ("h", 2), "ushort": ("H", 2), "int16": ("h", 2), "uint16": ("H", 2),
    "int": ("i", 4), "uint": ("I", 4), "int32": ("i", 4), "uint32": ("I", 4),
    "float": ("f", 4), "float32": ("f", 4),
    "double": ("d", 8), "float64": ("d", 8),
}


def read_cloud(path):
    """Read a point cloud; format chosen by extension (.xyz/.ply/.obj)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ply":
        points, lines = _read_ply_vertices(path)
    elif suffix == ".obj":
        points, lines = _read_obj_vertices(path)
    else:
        points, lines = _read_xyz(path)
    if len(points) < 4:
        raise FileFormatError(f"{path}: needs at least 4 points, got {len(points)}")
    points = np.asarray(points, dtype=np.float64)
    dup = find_duplicate(points)
    if dup is not None:
        raise FileFormatError(
            f"{path}: duplicate point at {lines[dup[0]]} and {lines[dup[1]]}"
        )
    return PointCloud(points)


def _read_xyz(path):
    points, lines = [], []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) < 3:
                raise FileFormatError(f"{path}: line {lineno}: expected 'x y z'")
            try:
                xyz = [float(v) for v in parts[:3]]
            except ValueError as exc:
                raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
            points.append(xyz)
            lines.append(f"line {lineno}")
    return points, lines


def _read_obj_vertices(path):
    points, lines = [], []
    skipped_faces = 0
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise FileFormatError(
                        f"{path}: line {lineno}: v-line needs 3 coordinates"
                    )
                try:
                    points.append([float(v) for v in parts[1:4]])
                except ValueError as exc:
                    raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
                lines.append(f"line {lineno}")
            elif parts[0] == "f":
                skipped_faces += 1
    if skipped_faces:
        warnings.warn(
            f"{path}: ignored {skipped_faces} face lines while reading a cloud",
            stacklevel=3,
        )
    return points, lines


def _parse_ply_header(fh, path):
    magic = fh.readline().strip()
    if magic != b"ply":
        raise FileFormatError(f"{path}: not a PLY file")
    fmt = None
    elements = []  # (name, count, [(prop name, type, list count type)])
    lineno = 1
    while True:
        raw = fh.readline()
        lineno += 1
        if not raw:
            raise FileFormatError(f"{path}: line {lineno}: header ended early")
        parts = raw.decode("ascii", "replace").split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}: line {lineno}: property before element")
            if parts[1] == "list":
                elements[-1][2].append((parts[4], parts[3], parts[2]))
            else:
                elements[-1][2].append((parts[2], parts[1], None))
        elif parts[0] == "end_header":
            break
        else:
            raise FileFormatError(f"{path}: line {lineno}: bad header ({parts[0]})")
    if fmt not in ("ascii", "binary_little_endian"):
        raise FileFormatError(f"{path}: unsupported PLY format {fmt!r}")
    return fmt, elements, lineno


def _read_ply_vertices(path):
    with open(path, "rb") as fh:
        fmt, elements, lineno = _parse_ply_header(fh, path)
        for name, count, props in elements:
            if name == "vertex":
                break
            if fmt == "ascii":
                for _ in range(count):
                    fh.readline()
                    lineno += 1
                continue
            if any(p[2] is not None for p in props):
                raise FileFormatError(
                    f"{path}: list-typed element {name!r} precedes vertices "
                    "in a binary PLY"
                )
            width = sum(_PLY_SCALARS[p[1]][1] for p in props)
            fh.seek(count * width, 1)
        else:
            raise FileFormatError(f"{path}: no vertex element")
        names = [p[0] for p in props]
        for needed in ("x", "y", "z"):
            if needed not in names:
                raise FileFormatError(f"{path}: vertex lacks property {needed!r}")
        if fmt == "ascii":
            rows = []
            for i in range(count):
                parts = fh.readline().split()
                lineno += 1
                if len(parts) < len(props):
                    raise FileFormatError(
                        f"{path}: line {lineno}: truncated vertex row"
                    )
                rows.append([float(v) for v in parts])
            data = np.array(rows)
            cols = [names.index(ax) for ax in "xyz"]
            pts = data[:, cols]
        else:
            dtype = np.dtype(
                [(p[0], "<" + _PLY_SCALARS[p[1]][0]) for p in props]
            )
            raw = fh.read(count * dtype.itemsize)
            if len(raw) < count * dtype.itemsize:
                raise FileFormatError(f"{path}: binary vertex data truncated")
            data = np.frombuffer(raw, dtype=dtype, count=count)
            pts = np.column_stack(
                [data["x"].astype(np.float64), data["y"].astype(np.float64),
                 data["z"].astype(np.float64)]
            )
    labels = [f"vertex {i}" for i in range(len(pts))]
    return pts, labels


def write_cloud(points, path):
    """Write points as XYZ with 17-significant-digit coordinates."""
    points = np.asarray(points, dtype=np.float64)
    with open(path, "w") as fh:
        _write_rows(fh, points, _XYZ_ROW)


def _write_rows(fh, rows, row_fmt):
    """Write the rows of an (n, c) array, each formatted by ``row_fmt``
    (c conversions), ``_BLOCK_ROWS`` rows per write."""
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo:lo + _BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_mesh(mesh, path, fmt=None):
    """Write a mesh as OBJ (default) or ASCII PLY, by format or extension."""
    path = Path(path)
    fmt = fmt or path.suffix.lstrip(".").lower() or "obj"
    if fmt == "obj":
        _write_obj(mesh, path)
    elif fmt == "ply":
        _write_ply(mesh, path)
    else:
        raise FileFormatError(f"unknown mesh format {fmt!r}")


def _write_obj(mesh, path):
    with open(path, "w") as fh:
        _write_rows(fh, mesh.vertices, "v " + _XYZ_ROW)
        _write_rows(fh, mesh.faces + 1, "f" + " %d" * mesh.arity + "\n")


def _write_ply(mesh, path):
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        _write_rows(fh, mesh.vertices, _XYZ_ROW)
        _write_rows(fh, mesh.faces, str(mesh.arity) + " %d" * mesh.arity + "\n")


def read_mesh(path):
    """Read an OBJ or ASCII-PLY mesh (vertices and faces)."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return _read_ply_mesh(path)
    return _read_obj_mesh(path)


def _read_obj_mesh(path):
    verts, faces = [], []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                try:
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                except ValueError as exc:
                    raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
                faces.append(idx)
    if not faces:
        raise FileFormatError(f"{path}: no faces found")
    arity = len(faces[0])
    if any(len(f) != arity for f in faces):
        raise FileFormatError(f"{path}: mixed face arities are unsupported")
    return SurfaceMesh(np.array(verts), np.array(faces, dtype=np.intp))


def _read_ply_mesh(path):
    with open(path, "rb") as fh:
        fmt, elements, lineno = _parse_ply_header(fh, path)
        if fmt != "ascii":
            raise FileFormatError(f"{path}: mesh reading supports ASCII PLY only")
        verts, faces = None, None
        for name, count, props in elements:
            rows = []
            for i in range(count):
                parts = fh.readline().split()
                lineno += 1
                if not parts:
                    raise FileFormatError(f"{path}: line {lineno}: truncated element")
                rows.append(parts)
            if name == "vertex":
                names = [p[0] for p in props]
                cols = [names.index(ax) for ax in "xyz"]
                verts = np.array(
                    [[float(r[c]) for c in cols] for r in rows]
                )
            elif name == "face":
                faces = [[int(v) for v in r[1:1 + int(r[0])]] for r in rows]
    if verts is None or faces is None:
        raise FileFormatError(f"{path}: PLY mesh needs vertex and face elements")
    arity = len(faces[0])
    if any(len(f) != arity for f in faces):
        raise FileFormatError(f"{path}: mixed face arities are unsupported")
    return SurfaceMesh(verts, np.array(faces, dtype=np.intp))


def write_map(sphere_map, path, config=None, stage_seconds=None):
    """Serialize a spherical map: an index/unit-vector table plus a JSON
    metadata sidecar (same path with .json appended)."""
    path = Path(path)
    # ids go through float64 exactly (n < 2**53) and print with %d
    table = np.column_stack([np.arange(sphere_map.n), sphere_map.images])
    with open(path, "w") as fh:
        _write_rows(fh, table, "%d " + _XYZ_ROW)
    meta = {
        "points": int(sphere_map.n),
        "iterations": int(sphere_map.iterations),
        "converged": bool(sphere_map.converged),
        "movement_history": [float(h) for h in sphere_map.history],
    }
    if config is not None:
        meta.update(
            k=config.k,
            r_percent=config.r_percent,
            epsilon=config.epsilon,
            weight=config.weight.kind,
            max_ns_iters=config.max_ns_iters,
        )
    if stage_seconds is not None:
        meta["stage_seconds"] = {k: float(v) for k, v in stage_seconds.items()}
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_map(path, cloud):
    """Load a serialized spherical map back over its cloud."""
    from .param import SphericalMap

    images = np.zeros((cloud.n, 3))
    first_line = {}  # id -> line that set it
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise FileFormatError(f"{path}: line {lineno}: expected 'id x y z'")
            try:
                i, xyz = int(parts[0]), [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
            if not 0 <= i < cloud.n:
                raise FileFormatError(
                    f"{path}: line {lineno}: id {i} is outside [0, {cloud.n})"
                )
            if i in first_line:
                raise FileFormatError(
                    f"{path}: line {lineno}: id {i} repeats line {first_line[i]}"
                )
            if not all(map(math.isfinite, xyz)):
                raise FileFormatError(f"{path}: line {lineno}: non-finite image")
            first_line[i] = lineno
            images[i] = xyz
    if len(first_line) != cloud.n:
        raise FileFormatError(
            f"{path}: map has {len(first_line)} entries for a cloud of {cloud.n}"
        )
    meta_path = Path(str(path) + ".json")
    history, converged = [], True
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        history = meta.get("movement_history", [])
        converged = meta.get("converged", True)
    return SphericalMap(
        cloud=cloud, images=images, history=history,
        iterations=len(history), converged=converged,
    )
