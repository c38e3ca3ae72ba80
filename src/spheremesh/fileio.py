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


def _parse(convert, fields, path, lineno):
    """fields converted by ``convert``; a field it rejects raises
    FileFormatError naming the file and the line."""
    try:
        return [convert(v) for v in fields]
    except ValueError as exc:
        raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc


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
            points.append(_parse(float, parts[:3], path, lineno))
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
                points.append(_obj_vertex(parts, path, lineno))
                lines.append(f"line {lineno}")
            elif parts[0] == "f":
                skipped_faces += 1
    if skipped_faces:
        warnings.warn(
            f"{path}: ignored {skipped_faces} face lines while reading a cloud",
            stacklevel=3,
        )
    return points, lines


def _obj_vertex(parts, path, lineno):
    """Coordinates of the OBJ v-line split into parts."""
    if len(parts) < 4:
        raise FileFormatError(f"{path}: line {lineno}: v-line needs 3 coordinates")
    return _parse(float, parts[1:4], path, lineno)


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
            if len(parts) != 3:
                raise FileFormatError(
                    f"{path}: line {lineno}: expected 'element <name> <count>'"
                )
            (count,) = _parse(int, parts[2:], path, lineno)
            elements.append((parts[1], count, []))
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
                _ascii_rows(fh, count, lineno, path)
                lineno += count
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
        cols = _xyz_columns(props, path)
        if fmt == "ascii":
            rows = _ascii_rows(fh, count, lineno, path)
            pts = _ascii_xyz(rows, len(props), cols, path)
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


def _ascii_rows(fh, count, lineno, path):
    """The next ``count`` rows of an ASCII PLY body after line ``lineno``,
    as (line number, fields) pairs; a blank or missing row raises."""
    rows = []
    for _ in range(count):
        lineno += 1
        parts = fh.readline().split()
        if not parts:
            raise FileFormatError(f"{path}: line {lineno}: truncated element")
        rows.append((lineno, parts))
    return rows


def _xyz_columns(props, path):
    """Positions of the x, y and z properties of a PLY vertex element."""
    names = [p[0] for p in props]
    for needed in "xyz":
        if needed not in names:
            raise FileFormatError(f"{path}: vertex lacks property {needed!r}")
    return [names.index(ax) for ax in "xyz"]


def _ascii_xyz(rows, width, cols, path):
    """(n, 3) positions from ASCII PLY vertex rows (``_ascii_rows``) of
    ``width`` properties, x, y and z at columns ``cols``."""
    pts = np.empty((len(rows), 3))
    for i, (lineno, parts) in enumerate(rows):
        if len(parts) < width:
            raise FileFormatError(f"{path}: line {lineno}: truncated vertex row")
        pts[i] = _parse(float, [parts[c] for c in cols], path, lineno)
    return pts


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


def mesh_format(path):
    """The mesh format ``write_mesh`` picks for ``path``: 'obj' (also for
    no extension) or 'ply'.

    Raises
    ------
    FileFormatError
        Any other extension; the message names the path.
    """
    fmt = Path(path).suffix.lstrip(".").lower() or "obj"
    if fmt not in ("obj", "ply"):
        raise FileFormatError(
            f"{path}: unknown mesh format {fmt!r} (use .obj or .ply)"
        )
    return fmt


def write_mesh(mesh, path):
    """Write a mesh as OBJ or ASCII PLY, chosen by the path's extension."""
    writer = _write_obj if mesh_format(path) == "obj" else _write_ply
    writer(mesh, path)


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
                verts.append(_obj_vertex(parts, path, lineno))
            elif parts[0] == "f":
                ids = _parse(int, [p.split("/")[0] for p in parts[1:]], path, lineno)
                faces.append((lineno, ids))
    if not faces:
        raise FileFormatError(f"{path}: no faces found")
    return _checked_mesh(np.array(verts), faces, 1, path)


def _checked_mesh(verts, rows, base, path):
    """SurfaceMesh of ``verts`` and the face ``rows``, (line number,
    vertex ids) pairs with ids counted from ``base``.  A row of the
    wrong arity or with an id outside the vertices raises
    FileFormatError naming its line."""
    for lineno, ids in rows:
        if len(ids) != len(rows[0][1]) or len(ids) not in (3, 4):
            raise FileFormatError(
                f"{path}: line {lineno}: face has {len(ids)} vertex ids; "
                "faces must be all triangles or all quads"
            )
    lines, faces = zip(*rows)
    ids = np.array(faces, dtype=np.intp)
    high = len(verts) + base
    rows, cols = np.nonzero((ids < base) | (ids >= high))
    if rows.size:
        raise FileFormatError(
            f"{path}: line {lines[rows[0]]}: vertex id {ids[rows[0], cols[0]]} "
            f"is outside [{base}, {high})"
        )
    return SurfaceMesh(verts, ids - base)


def _read_ply_mesh(path):
    with open(path, "rb") as fh:
        fmt, elements, lineno = _parse_ply_header(fh, path)
        if fmt != "ascii":
            raise FileFormatError(f"{path}: mesh reading supports ASCII PLY only")
        verts, faces = None, None
        for name, count, props in elements:
            rows = _ascii_rows(fh, count, lineno, path)
            lineno += count
            if name == "vertex":
                verts = _ascii_xyz(rows, len(props), _xyz_columns(props, path), path)
            elif name == "face":
                faces = [(row, _ply_face(parts, path, row)) for row, parts in rows]
    if verts is None or not faces:
        raise FileFormatError(f"{path}: PLY mesh needs vertex and face elements")
    return _checked_mesh(verts, faces, 0, path)


def _ply_face(parts, path, lineno):
    """Vertex ids of an ASCII PLY face row: a count, then that many ids."""
    (count,) = _parse(int, parts[:1], path, lineno)
    ids = _parse(int, parts[1:1 + count], path, lineno)
    if len(ids) < count:
        raise FileFormatError(
            f"{path}: line {lineno}: face row lists {len(ids)} of {count} ids"
        )
    return ids


def write_map(sphere_map, path, config=None):
    """Serialize a spherical map: an index/unit-vector table plus a JSON
    metadata sidecar (same path with .json appended), which records the
    map's ``stage_seconds`` when it has them."""
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
    if sphere_map.stage_seconds is not None:
        meta["stage_seconds"] = {
            k: float(v) for k, v in sphere_map.stage_seconds.items()
        }
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
            (i,) = _parse(int, parts[:1], path, lineno)
            xyz = _parse(float, parts[1:], path, lineno)
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
