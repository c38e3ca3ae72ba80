"""File ingestion and serialization.

Clouds read from XYZ (ASCII triples), PLY (ASCII or binary
little-endian vertices, extra properties and later elements ignored)
and OBJ (v-lines; faces ignored with a warning).  Meshes write to OBJ
or ASCII PLY, and a mesh written either way reads back as the cloud of
its vertices, bit-exactly: floats serialize with 17 significant digits,
so writes are bit-reproducible.  A map is the XYZ table of its images,
row i the image of point i, plus the ``.json`` sidecar that
``write_map`` writes beside it; ``read_map`` reads both, the table
through the XYZ reader with exactly three values per row.

One scanner, ``_lines``, reads XYZ (so also map) and OBJ tables and
takes ``#`` comments on any line.  There is one reader per format,
``_read_xyz``, ``_read_obj`` and ``_read_ply``.  A malformed file raises
FileFormatError naming the path and the line (or PLY vertex).

A well-formed XYZ file is parsed by one ``np.loadtxt`` call, which
gives the same floats as the scanner without per-line Python lists:
about half the time (0.052 s against 0.109 s for 20 000 points on a
2-core host) and about 2 MB less heap left resident.  Any file it
rejects, and any points that ``PointCloud`` rejects, are read again by
the scanner, which alone reports what is wrong and on which line.

Every writer opens its file in binary mode and writes it in blocks of
``_BLOCK_ROWS`` rows, with the same bytes as one formatted line per
row.  Float rows (vertices, XYZ points and map images) go through
one kernel, ``_write_floats``.  For a value of magnitude in
[1e-4, 1e16), which ``%.17g`` prints in fixed notation, the 17
significant digits are exact: Dekker's two-product of the value and an
exact power of ten is rounded once, ties to even.  A zero prints as
``0`` or ``-0`` from the same places, with no digit kept.  Each value's
bytes sit in fixed places counted from its last digit, with a 0 byte
wherever ``%g`` prints nothing (trailing fraction zeros, a bare point,
the room left of the sign), and one mask drops them.  A row holding any
other value (an exponent-form value, nan or inf) goes through bytes
``%``, one call per run of such rows.  On the 181 662 vertex floats of
a ``remesh`` benchmark pass the kernel takes about 27 ms against 76 ms
for ``%`` (2-core host), and a table of exponent-form values costs
about what ``%`` alone costs.  Face rows, the only integer-only tables,
go through a decimal kernel of the same build, ``_write_ints``: a
block's values, plus the OBJ offset, are split into fixed-width digits
by repeated ``// 10`` on the smallest unsigned dtype that holds the
table's maximum, with a 0 byte for each leading zero.  On the five face
tables of a ``remesh`` pass it takes about 9 ms against 28-33 ms for
``%d``, and adding the OBJ offset per block keeps a shifted copy of the
whole table out of the heap.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud, find_duplicate, xyz_array
from .errors import CloudError, FileFormatError, MeshError
from .meshing import spherical_delaunay
from .param import SphericalMap

_BLOCK_ROWS = 4096  # rows formatted per write; bounds the temporaries
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: a double into two 26-bit halves
_POW10 = np.array([float(10**p) for p in range(22)])  # each exact in float64
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_LEAD = np.frombuffer(b"0.0\0", np.uint8)  # by r + 1 - q: a 0, the point, the 0, none

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
    if suffix == ".ply":
        return _cloud(_read_ply(path), None, path)
    if suffix == ".obj":
        points, lines, faces = _read_obj(path)
        if faces:
            warnings.warn(f"{path}: ignored {faces} face lines while reading "
                          "a cloud", stacklevel=2)
        return _cloud(points, lines, path)
    return _xyz_cloud(path, None)


def _xyz_cloud(path, width):
    """The cloud of an XYZ table whose rows carry exactly ``width``
    values, or, when ``width`` is None, at least three, of which the
    first three are read.  ``_load_xyz`` reads a well-formed table;
    any table it rejects is read again by ``_read_xyz``, and the
    scanner accepts it or says which line is wrong."""
    cloud = _load_xyz(path, width)
    if cloud is not None:
        return cloud
    points, lines = _read_xyz(path, width)
    return _cloud(points, lines, path)


def _cloud(points, lines, path):
    """The PointCloud of ``points`` read from ``path``, where point i
    was on line ``lines[i]`` (PLY points, ``lines`` None, go by vertex
    id); a rejected point set raises FileFormatError saying where."""
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


def _load_xyz(path, width):
    """The cloud of a well-formed XYZ table, parsed by one ``np.loadtxt``
    call; None if the table is malformed or its points are rejected (a
    parse failure, a warning such as an empty file's, or a CloudError:
    rows of other than 3 values when ``width`` is 3, fewer than 4,
    non-finite or duplicate points), so that ``_read_xyz`` reads it
    again: the scanner reports any error with its line, and accepts the
    few spellings that Python's ``float`` takes and ``loadtxt`` does
    not, such as ``1_0``."""
    try:
        with open(path, "r") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            points = np.loadtxt(fh, comments="#", ndmin=2,
                                usecols=None if width else (0, 1, 2))
    except (ValueError, Warning):
        return None
    try:
        return PointCloud(points)
    except CloudError:
        return None


def _read_xyz(path, width):
    points, lines = [], []
    for lineno, fields in _lines(path):
        if len(fields) < 3 or width and len(fields) != width:
            raise FileFormatError(f"{path}: line {lineno}: expected 'x y z'")
        points.append(_parse(float, fields[:3], path, lineno))
        lines.append(lineno)
    return points, lines


def _read_obj(path):
    """The v-line coordinates of an OBJ file, the line number of each,
    and the number of its f-lines, which a cloud read ignores."""
    verts, lines, faces = [], [], 0
    for lineno, fields in _lines(path):
        if fields[0] == "v":
            if len(fields) < 4:
                raise FileFormatError(f"{path}: line {lineno}: expected 'v x y z'")
            verts.append(_parse(float, fields[1:4], path, lineno))
            lines.append(lineno)
        elif fields[0] == "f":
            faces += 1
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


def _read_ply(path):
    """The (n, 3) vertex positions of a PLY file.  The elements before
    the vertex element are skipped, ASCII rows read and dropped, binary
    ones passed over by ``seek``; the read stops after the vertices."""
    with open(path, "rb") as fh:
        fmt, elements, lineno = _parse_ply_header(fh, path)
        for name, count, props in elements:
            if name == "vertex":
                return _ply_vertices(fh, fmt, count, props, lineno, path)
            if fmt == "ascii":
                _ascii_rows(fh, count, lineno, path)
            else:
                fh.seek(count * _binary_dtype(name, props, path).itemsize, 1)
            lineno += count
    raise FileFormatError(f"{path}: no vertex element")


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
    """Write points as XYZ with 17-significant-digit coordinates.

    Raises
    ------
    CloudError
        ``points`` is not an (n, 3) array; nothing is written.
    """
    points = xyz_array(points)
    with open(path, "wb") as fh:
        _write_floats(fh, points, b"")


def _write_floats(fh, rows, prefix):
    """Write the rows of an (n, c) float64 array with the bytes of
    ``prefix + b" %.17g" * c + b"\\n"`` per row, without the first
    space when ``prefix`` is empty, ``_BLOCK_ROWS`` rows per write.

    A row whose values are all zeros or lie in [1e-4, 1e16) in
    magnitude, where ``%.17g`` prints fixed notation, is laid out by
    ``_fixed_rows``.  Any other row (an exponent-form value, nan or inf)
    goes through bytes ``%``, one call per run of such rows, so a table of
    them costs about what ``%`` alone costs."""
    row_fmt = prefix + b" %.17g" * rows.shape[1] + b"\n"
    if not prefix:
        row_fmt = row_fmt[1:]
    for lo in range(0, len(rows), _BLOCK_ROWS):
        # a call per block frees its arrays before the next block's
        _write_float_block(fh, rows[lo:lo + _BLOCK_ROWS], prefix, row_fmt)


def _write_float_block(fh, block, prefix, row_fmt):
    """Write one block of ``_write_floats``; ``row_fmt`` formats a row."""
    fixed = np.logical_and.reduce(
        [((a >= 1e-4) | (a == 0)) & (a < 1e16) for a in np.abs(block).T])
    text = _fixed_rows(block[fixed], prefix) if fixed.any() else None
    cuts = [0, *(np.flatnonzero(np.diff(fixed)) + 1).tolist(), len(block)]
    done = 0  # rows of text written
    for a, b in zip(cuts, cuts[1:]):
        if fixed[a]:
            run = text[done:done + b - a]
            done += b - a
            fh.write(run[run != 0])
        else:
            fh.write((row_fmt * (b - a)) % tuple(block[a:b].ravel().tolist()))


def _fixed_rows(block, prefix):
    """The rows of ``block``, an (m, c) array of zeros and values of
    magnitude in [1e-4, 1e16), as ``_write_floats`` writes them: an
    (m, w) byte array with a 0 in every byte to drop.

    A row is the prefix, then per value a space and ``width`` bytes,
    then a newline.  ``%.17g`` prints such a value in fixed notation
    from its 17 significant digits, the integer ``d`` that
    ``_significand`` gives, and its decimal exponent ``e``.  Counted
    from the right of a value's bytes, with ``q = 16 - e``, byte r < q
    is digit 16 - r of ``d`` (a fraction digit, or a 0 between the
    point and digit 0), byte q is the point, and bytes q < r <= 17 are
    the integer digits, digit 17 - r; a value below 1 has one 0 left of
    its point instead.  The first byte is the sign.  Fraction digits
    right of the last nonzero one, a point with no fraction digit left,
    and the bytes between the sign and the first digit are 0.  A zero
    (``d`` = 0, ``e`` = -1) keeps only its 0 left of the point, and its
    sign bit, so -0.0 prints ``-0``.
    """
    m, c = block.shape
    vals = block.ravel()
    e, d = _decimal(np.abs(vals))
    q = 16 - e
    low, top = int(e.min()), int(e.max())
    width = 19 - min(low, 0)
    field = np.empty((width, vals.size), np.uint8)  # field[r]: byte r from the right
    seen = np.zeros(vals.size, bool)  # a nonzero digit at r or right of it
    v = (d % 10**9).astype(np.uint32)  # the low nine digits, then the high eight
    for r in range(17):
        if r == 9:
            v = (d // 10**9).astype(np.uint32)
        high = v // 10
        v -= high * 10
        np.logical_or(seen, v, out=seen)
        if r >= 16 - top:
            seen |= q <= r  # an integer digit
        v += ord("0")
        field[r] = v * seen
        v = high
    field[17] = ord("0")  # a value below 0.1 has a 0 there
    for r in range(17, 15 - top, -1):  # integer digits step left
        point = (field[r - 1] != 0) * np.uint8(ord("."))
        field[r] = np.where(r < q, field[r], np.where(r == q, point, field[r - 1]))
    for r in range(18, width - 1):  # the zeros, point and 0 of a value below 1
        field[r] = np.take(_LEAD, r + 1 - q, mode="clip")
    field[-1] = np.signbit(vals) * np.uint8(ord("-"))
    p = len(prefix)
    text = np.empty((m, p + c * (width + 1) + 1), np.uint8)
    text[:, :p] = np.frombuffer(prefix, np.uint8)
    text[:, -1] = ord("\n")
    cells = text[:, p:-1].reshape(m, c, width + 1)
    cells[..., 0] = ord(" ")
    if not p:
        cells[:, 0, 0] = 0  # no separator before the first value
    cells[..., 1:] = field[::-1].T.reshape(m, c, width)
    return text


def _decimal(a):
    """The decimal exponent ``e`` (int8) and 17-digit significand ``d``
    (int64, in [10**16, 10**17)) of doubles ``a`` in [1e-4, 1e16):
    ``a`` rounds to ``d * 10**(e - 16)`` at 17 significant digits.  A
    zero in ``a`` gets ``e`` = -1 and ``d`` = 0."""
    e = np.floor(np.log10(a, out=np.full_like(a, -1.0), where=a > 0)).astype(np.int8)
    d = _significand(a, e)
    # floor(log10) can be one off next to a power of ten, and one step
    # puts d in [10**16, 10**17): no double in range lies within half a
    # unit of the 17th digit below a power of ten, so no rounding carries
    off = np.flatnonzero(((d < 10**16) | (d >= 10**17)) & (a > 0))
    e[off] += np.where(d[off] < 10**16, -1, 1)
    d[off] = _significand(a[off], e[off])
    return e, d


def _significand(a, e):
    """round(a * 10**(16 - e)) as int64, ties to even, for positive
    doubles ``a`` and int exponents ``e`` in [-5, 16].

    10**p is exact for p <= 22, and Veltkamp's split with Dekker's
    two-product (Dekker, Numer. Math. 1971) gives the product as
    hi + lo with no rounding error.  Where the result has 17 digits, hi
    is an even integer of at least 2**53, so hi + rint(lo) is the
    correctly rounded product."""
    p = 16 - e
    hi = a * _POW10[p]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _POW10_HI[p]
    lo = ah * bh - hi
    # each product is used once, so it takes the place of a factor
    lo += np.multiply(ah, _POW10_LO[p], out=ah)
    lo += np.multiply(al, bh, out=bh)
    lo += np.multiply(al, _POW10_LO[p], out=al)
    del ah, al, bh  # before the int64 arrays
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    return d


def _write_ints(fh, rows, prefix, offset):
    """Write the rows of an (n, c) array of nonnegative ints, plus
    ``offset``, with the bytes of ``prefix + b" %d" * c + b"\\n"`` per
    row, ``_BLOCK_ROWS`` rows per write.

    Each value gets a cell of bytes: room for the prefix, a space, as
    many right-aligned digits as the table's largest value has, and room
    for the newline.  The digits come from repeated ``// 10`` on the
    smallest unsigned dtype that holds that largest value.  A zero left
    of every nonzero digit, and the room no prefix or newline uses, are
    0 bytes, which the write drops."""
    n, c = rows.shape
    top = int(rows.max(initial=0)) + offset
    dtype = np.min_scalar_type(top)
    p = len(prefix)
    units = p + len(str(top))  # cell index of a value's last digit
    text = np.zeros((min(n, _BLOCK_ROWS), c, units + 2), np.uint8)
    text[:, 0, :p] = np.frombuffer(prefix, np.uint8)
    text[:, :, p] = ord(" ")
    text[:, -1, -1] = ord("\n")
    for lo in range(0, n, _BLOCK_ROWS):
        value = rows[lo:lo + _BLOCK_ROWS].astype(dtype)
        value += offset
        m = len(value)
        for j in range(units, p, -1):
            high = value // 10
            digit = value - high * 10 + ord("0")
            text[:m, :, j] = digit if j == units else digit * (value != 0)
            value = high
        block = text[:m]
        fh.write(block[block != 0])


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
        _write_floats(fh, mesh.vertices, b"v")
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
        _write_floats(fh, mesh.vertices, b"")
        _write_ints(fh, mesh.faces, b"%d" % mesh.arity, 0)


def write_map(sphere_map, path, config=None):
    """Serialize a spherical map: its images as an XYZ table, row i the
    image of point i, which ``read_cloud`` reads as the point cloud of
    the images, plus a JSON metadata sidecar (same path with .json
    appended), which records the map's ``stage_seconds`` when it has
    them."""
    write_cloud(sphere_map.images, path)
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
    """Load a serialized spherical map back over its cloud, with its
    triangulation: ``delaunay_faces`` is the spherical Delaunay mesh of
    the images, built once here and reused by every mesh of the map.

    The table is read as an XYZ cloud whose rows carry exactly the three
    coordinates of an image, so a malformed row, a non-finite image or
    two equal images raise FileFormatError naming the line, and the
    table must have one row per point of ``cloud``.  ``history`` and
    ``converged`` come from the ``.json`` sidecar that ``write_map``
    writes beside the table; a missing sidecar raises FileNotFoundError
    naming it.  Raises MeshError when the images are not unit vectors
    or the hull leaves one out, with the path in front of its
    message."""
    images = np.array(_xyz_cloud(path, 3).points)
    if len(images) != cloud.n:
        raise FileFormatError(
            f"{path}: map has {len(images)} rows for a cloud of {cloud.n}"
        )
    meta_path = Path(str(path) + ".json")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{meta_path}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise FileFormatError(f"{meta_path}: expected a JSON object")
    history = meta.get("movement_history")
    if type(history) is not list or not all(
        type(v) in (int, float) and math.isfinite(v) for v in history
    ):
        raise FileFormatError(
            f"{meta_path}: movement_history must be a list of finite numbers"
        )
    converged = meta.get("converged")
    if type(converged) is not bool:
        raise FileFormatError(f"{meta_path}: converged must be true or false")
    try:
        faces = spherical_delaunay(images).faces
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    return SphericalMap(
        cloud=cloud, images=images, history=history, converged=converged,
        delaunay_faces=faces,
    )
