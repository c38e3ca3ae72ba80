"""File ingestion and serialization.

Clouds read from XYZ (ASCII triples), PLY (ASCII or binary
little-endian vertices, extra properties ignored) and OBJ (v-lines;
faces ignored with a warning).  Meshes read from and write to OBJ or
ASCII PLY and round-trip with identical topology.  Floats serialize
with 17 significant digits, so writes are bit-reproducible.

One scanner, ``_lines``, reads XYZ, OBJ and map tables and takes
``#`` comments on any line.  Clouds and meshes share one reader per
format, ``_read_obj`` and ``_read_ply``.  A malformed file raises
FileFormatError naming the path and the line (or PLY vertex).

A well-formed XYZ file is parsed by one ``np.loadtxt`` call, which
gives the same floats as the scanner without per-line Python lists:
about half the time (0.052 s against 0.109 s for 20 000 points on a
2-core host) and about 2 MB less heap left resident.  Any file it
rejects, and any points that ``PointCloud`` rejects, are read again by
the scanner, which alone reports what is wrong and on which line.

Every writer opens its file in binary mode and writes it in blocks of
``_BLOCK_ROWS`` rows, with the same bytes as one formatted line per
row.  Float rows (vertices, XYZ points, map rows) take one bytes ``%``
over a block's values: ``b"%.17g"`` gives the digits of the str ``%``
at about its speed (82 ms against 89 ms on 180 000 floats, 2-core
host), and ``%r``, ``tofile``, ``np.char.mod`` and ``astype(str)`` took
132-387 ms.  Face rows, the only integer-only tables, go through one
decimal kernel, ``_write_ints``: a block's values, plus the OBJ offset,
are split into fixed-width digits by repeated ``// 10`` on the smallest
unsigned dtype that holds the table's maximum, and one boolean mask
drops the leading zeros.  On the five face tables of a ``remesh``
benchmark pass it takes about 9 ms against 28-33 ms for ``%d``, and
adding the OBJ offset per block keeps a shifted copy of the whole
table out of the heap.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud, find_duplicate
from .errors import CloudError, FileFormatError
from .mesh import SurfaceMesh

FLOAT_FMT = "%.17g"
_XYZ_ROW = f"{FLOAT_FMT} {FLOAT_FMT} {FLOAT_FMT}\n".encode()
_BLOCK_ROWS = 4096  # rows formatted per write; bounds the temporaries

_PLY_SCALARS = {  # PLY type -> numpy type code
    "char": "b", "uchar": "B", "int8": "b", "uint8": "B",
    "short": "h", "ushort": "H", "int16": "h", "uint16": "H",
    "int": "i", "uint": "I", "int32": "i", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def _lines(path):
    """(line number, fields) of each line of a text file that is not
    blank once a ``#`` comment is cut off."""
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split("#", 1)[0].split()
            if fields:
                yield lineno, fields


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
    lines = None  # line number of each point; PLY points go by vertex id
    if suffix == ".ply":
        points, _ = _read_ply(path, faces=False)
    elif suffix == ".obj":
        points, lines, faces = _read_obj(path)
        if faces:
            warnings.warn(f"{path}: ignored {len(faces)} face lines while reading "
                          "a cloud", stacklevel=2)
    else:
        cloud = _load_xyz(path)
        if cloud is not None:
            return cloud
        # rejected: the scanner accepts the file or says which line is wrong
        points, lines = _read_xyz(path)
    if len(points) < 4:
        raise FileFormatError(f"{path}: needs at least 4 points, got {len(points)}")
    try:
        return PointCloud(points)
    except CloudError as exc:  # non-finite or duplicate points: say where
        points = np.asarray(points, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))[:1]
        where = [f"vertex {i}" if lines is None else f"line {lines[i]}"
                 for i in (bad if bad.size else find_duplicate(points))]
        problem = "non-finite coordinates" if bad.size else "duplicate point"
        raise FileFormatError(f"{path}: {problem} at {' and '.join(where)}") from exc


def _load_xyz(path):
    """The cloud of a well-formed XYZ file, parsed by one ``np.loadtxt``
    call; None if the file is malformed or its points are rejected (a
    parse failure, a warning such as an empty file's, or a CloudError:
    fewer than 4, non-finite or duplicate points), so that ``_read_xyz``
    reads it again: the scanner reports any error with its line, and
    accepts the few spellings that Python's ``float`` takes and
    ``loadtxt`` does not, such as ``1_0``."""
    try:
        with open(path, "r") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            points = np.loadtxt(fh, comments="#", usecols=(0, 1, 2), ndmin=2)
    except (ValueError, Warning):
        return None
    try:
        return PointCloud(points)
    except CloudError:
        return None


def _read_xyz(path):
    points, lines = [], []
    for lineno, fields in _lines(path):
        if len(fields) < 3:
            raise FileFormatError(f"{path}: line {lineno}: expected 'x y z'")
        points.append(_parse(float, fields[:3], path, lineno))
        lines.append(lineno)
    return points, lines


def _read_obj(path):
    """The v-line coordinates of an OBJ file, the line number of each,
    and its f-lines as (line number, fields after the 'f') pairs."""
    verts, lines, faces = [], [], []
    for lineno, fields in _lines(path):
        if fields[0] == "v":
            if len(fields) < 4:
                raise FileFormatError(f"{path}: line {lineno}: expected 'v x y z'")
            verts.append(_parse(float, fields[1:4], path, lineno))
            lines.append(lineno)
        elif fields[0] == "f":
            faces.append((lineno, fields[1:]))
    return verts, lines, faces


def _expect(ok, usage, path, lineno):
    if not ok:
        raise FileFormatError(f"{path}: line {lineno}: expected '{usage}'")


def _parse_ply_header(fh, path):
    """Format, elements and last line number of a PLY header.  Each
    element is (name, count, properties), each property (name, type,
    list count type or None, header line number)."""
    if fh.readline().strip() != b"ply":
        raise FileFormatError(f"{path}: not a PLY file")
    fmt, elements, lineno = None, [], 1
    while True:
        raw = fh.readline()
        lineno += 1
        if not raw:
            raise FileFormatError(f"{path}: line {lineno}: header ended early")
        parts = raw.decode("ascii", "replace").split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            _expect(len(parts) > 1, "format <format> <version>", path, lineno)
            fmt = parts[1]
        elif parts[0] == "element":
            _expect(len(parts) == 3, "element <name> <count>", path, lineno)
            (count,) = _parse(int, parts[2:], path, lineno)
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}: line {lineno}: property before element")
            if parts[1:2] == ["list"]:
                _expect(len(parts) > 4, "property list <count type> <item type> <name>",
                        path, lineno)
                if elements[-1][0] == "vertex":
                    raise FileFormatError(
                        f"{path}: line {lineno}: list property in the vertex element")
                elements[-1][2].append((parts[4], parts[3], parts[2], lineno))
            else:
                _expect(len(parts) > 2, "property <type> <name>", path, lineno)
                elements[-1][2].append((parts[2], parts[1], None, lineno))
        elif parts[0] == "end_header":
            break
        else:
            raise FileFormatError(f"{path}: line {lineno}: bad header ({parts[0]})")
    if fmt not in ("ascii", "binary_little_endian"):
        raise FileFormatError(f"{path}: unsupported PLY format {fmt!r}")
    return fmt, elements, lineno


def _read_ply(path, faces):
    """The (n, 3) vertex positions of a PLY file and, when ``faces`` is
    set, the rows of its ASCII face element as (line number, fields)
    pairs.  One pass over the header's elements; a cloud read stops
    after the vertices."""
    with open(path, "rb") as fh:
        fmt, elements, lineno = _parse_ply_header(fh, path)
        if faces and fmt != "ascii":
            raise FileFormatError(f"{path}: mesh reading supports ASCII PLY only")
        verts, body = None, {}  # ASCII rows of the other elements, by name
        for name, count, props in elements:
            if name == "vertex":
                verts = _ply_vertices(fh, fmt, count, props, lineno, path)
                if not faces:
                    break
            elif fmt == "ascii":
                body[name] = _ascii_rows(fh, count, lineno, path)
            else:
                fh.seek(count * _binary_dtype(name, props, path).itemsize, 1)
            lineno += count
    if verts is None:
        raise FileFormatError(f"{path}: no vertex element")
    return verts, body.get("face", [])


def _ply_vertices(fh, fmt, count, props, lineno, path):
    """(count, 3) x, y, z of the PLY vertex element of ``props`` whose
    data start after line ``lineno``."""
    names = [p[0] for p in props]
    for needed in "xyz":
        if needed not in names:
            raise FileFormatError(f"{path}: vertex lacks property {needed!r}")
    cols = [names.index(ax) for ax in "xyz"]
    if fmt == "ascii":
        pts = np.empty((count, 3))
        for i, (row, fields) in enumerate(_ascii_rows(fh, count, lineno, path)):
            if len(fields) < len(props):
                raise FileFormatError(f"{path}: line {row}: truncated vertex row")
            pts[i] = _parse(float, [fields[c] for c in cols], path, row)
        return pts
    dtype = _binary_dtype("vertex", props, path)
    raw = fh.read(count * dtype.itemsize)
    if len(raw) < count * dtype.itemsize:
        raise FileFormatError(f"{path}: binary vertex data truncated")
    data = np.frombuffer(raw, dtype=dtype, count=count)
    return np.column_stack([data[f"f{c}"].astype(np.float64) for c in cols])


def _binary_dtype(name, props, path):
    """The little-endian numpy dtype of one row of binary element
    ``name``, whose ``props`` must be scalars of known types."""
    for _, ptype, count_type, header_line in props:
        if count_type is not None:
            raise FileFormatError(
                f"{path}: list-typed element {name!r} precedes vertices in a binary PLY"
            )
        if ptype not in _PLY_SCALARS:
            raise FileFormatError(
                f"{path}: line {header_line}: unknown PLY type {ptype!r}"
            )
    return np.dtype([("", "<" + _PLY_SCALARS[p[1]]) for p in props])


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


def write_cloud(points, path):
    """Write points as XYZ with 17-significant-digit coordinates."""
    points = np.asarray(points, dtype=np.float64)
    with open(path, "wb") as fh:
        _write_rows(fh, points, _XYZ_ROW)


def _write_rows(fh, rows, row_fmt):
    """Write the rows of an (n, c) array, each formatted by the bytes
    ``row_fmt`` (c conversions), ``_BLOCK_ROWS`` rows per write."""
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo:lo + _BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_ints(fh, rows, prefix, offset):
    """Write the rows of an (n, c) array of nonnegative ints, plus
    ``offset``, with the bytes of ``prefix + b" %d" * c + b"\\n"`` per
    row, ``_BLOCK_ROWS`` rows per write.

    Each value gets a cell of bytes: room for the prefix, a space, as
    many right-aligned digits as the table's largest value has, and room
    for the newline.  The digits come from repeated ``// 10`` on the
    smallest unsigned dtype that holds that largest value, and one
    boolean mask keeps the first cell's prefix, the last cell's newline,
    each space and each digit from the value's leading one on."""
    n, c = rows.shape
    top = int(rows.max(initial=0)) + offset
    dtype = np.min_scalar_type(top)
    p = len(prefix)
    units = p + len(str(top))  # cell index of a value's last digit
    shape = (min(n, _BLOCK_ROWS), c, units + 2)
    text = np.empty(shape, np.uint8)
    keep = np.zeros(shape, bool)
    text[:, 0, :p] = np.frombuffer(prefix, np.uint8)
    text[:, :, p] = ord(" ")
    text[:, -1, -1] = ord("\n")
    keep[:, 0, :p] = keep[:, :, p] = keep[:, :, units] = keep[:, -1, -1] = True
    for lo in range(0, n, _BLOCK_ROWS):
        value = rows[lo:lo + _BLOCK_ROWS].astype(dtype)
        value += offset
        m = len(value)
        for j in range(units, p, -1):
            high = value // 10
            text[:m, :, j] = value - high * 10 + ord("0")
            if j < units:  # a zero left of every nonzero digit is dropped
                keep[:m, :, j] = value != 0
            value = high
        fh.write(text[:m][keep[:m]])


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
    with open(path, "wb") as fh:
        _write_rows(fh, mesh.vertices, b"v " + _XYZ_ROW)
        _write_ints(fh, mesh.faces, b"f", 1)


def _write_ply(mesh, path):
    with open(path, "wb") as fh:
        fh.write(
            b"ply\nformat ascii 1.0\n"
            b"element vertex %d\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"element face %d\n"
            b"property list uchar int vertex_indices\nend_header\n"
            % (mesh.n_vertices, mesh.n_faces)
        )
        _write_rows(fh, mesh.vertices, _XYZ_ROW)
        _write_ints(fh, mesh.faces, b"%d" % mesh.arity, 0)


def read_mesh(path):
    """Read an OBJ or ASCII-PLY mesh (vertices and faces)."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        verts, rows = _read_ply(path, faces=True)
        if not rows:
            raise FileFormatError(f"{path}: PLY mesh needs vertex and face elements")
        faces = [(row, _ply_face(fields, path, row)) for row, fields in rows]
        return _checked_mesh(verts, faces, 0, path)
    verts, _, rows = _read_obj(path)
    if not rows:
        raise FileFormatError(f"{path}: no faces found")
    faces = [(row, _parse(int, [f.split("/")[0] for f in fields], path, row))
             for row, fields in rows]
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
    with open(path, "wb") as fh:
        _write_rows(fh, table, b"%d " + _XYZ_ROW)
    meta = {
        "points": int(sphere_map.n),
        "iterations": int(sphere_map.iterations),
        "converged": bool(sphere_map.converged),
        "movement_history": [float(h) for h in sphere_map.history],
    }
    if config is not None:
        meta.update(vars(config))
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
    for lineno, fields in _lines(path):
        if len(fields) != 4:
            raise FileFormatError(f"{path}: line {lineno}: expected 'id x y z'")
        (i,) = _parse(int, fields[:1], path, lineno)
        xyz = _parse(float, fields[1:], path, lineno)
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
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{meta_path}: not valid JSON ({exc})") from exc
        if not isinstance(meta, dict):
            raise FileFormatError(f"{meta_path}: expected a JSON object")
    history = meta.get("movement_history", [])
    if type(history) is not list or not all(
        type(v) in (int, float) and math.isfinite(v) for v in history
    ):
        raise FileFormatError(
            f"{meta_path}: movement_history must be a list of finite numbers"
        )
    converged = meta.get("converged", True)
    if type(converged) is not bool:
        raise FileFormatError(f"{meta_path}: converged must be true or false")
    return SphericalMap(
        cloud=cloud, images=images, history=history,
        iterations=len(history), converged=converged,
    )
