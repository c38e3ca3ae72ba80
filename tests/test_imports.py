"""No module of the package imports another module's private names: a
name with a leading underscore is used only where it is defined.  Every
private function, class or constant is read somewhere in the package,
so a deletion cannot orphan one.  And no module imports a name it does
not use, unless another module of the package imports that name from
it.  The package's public names are pinned, so a change that adds or
drops one shows it here."""

import ast
from pathlib import Path

import pytest

import spheremesh

MODULES = sorted(Path(spheremesh.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(source):
    """``line: dotted.name`` of every import that names a private module
    or a private name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            dotted = [prefix + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in dotted
                  if any(_private(part) for part in name.lstrip(".").split("."))]
    return found


def test_private_imports_are_found():
    source = "from .laplacian import DEFAULT_K, _lb_rows\nimport numpy._core\n"
    assert private_imports(source) == ["1: .laplacian._lb_rows", "2: numpy._core"]
    assert private_imports("from .cloud import build_index\nimport numpy\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_private_names(path):
    assert private_imports(path.read_text()) == []


def private_definitions(tree):
    """name -> line of every private name that a module-level ``def``,
    ``class`` or assignment in ``tree`` binds."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((name.id, node.lineno) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return {name: line for name, line in found.items() if _private(name)}


def reads(tree):
    """Every name that ``tree`` reads, as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


def unread_privates(source, package_reads):
    """``line: name`` of every private module-level name of ``source``
    that is not in ``package_reads``."""
    return [f"{line}: {name}"
            for name, line in private_definitions(ast.parse(source)).items()
            if name not in package_reads]


def test_unread_privates_are_found():
    # the class attribute _STEP is not module-level; _d[1] = 2 binds no name
    source = ("_STEP = 8\n_a, (_b, c) = 1, (2, 3)\n_T: int = 0\n"
              "def _f(x):\n    return x\nclass _C:\n    _STEP = 0\n")
    assert unread_privates(source, set()) == [
        "1: _STEP", "2: _a", "2: _b", "3: _T", "4: _f", "6: _C"]
    assert unread_privates(source, reads(ast.parse("_f(_C._STEP)"))) == [
        "2: _a", "2: _b", "3: _T"]
    assert unread_privates("_d = {}\n_d[1] = 2\n", set()) == ["1: _d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_read(path):
    package_reads = set().union(*(reads(ast.parse(p.read_text())) for p in MODULES))
    assert unread_privates(path.read_text(), package_reads) == []


def bound_imports(tree):
    """name -> line of every name that an import in ``tree`` binds."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    return bound


def dead_imports(source, reexported=frozenset()):
    """``line: name`` of every imported name that ``source`` never reads
    and that is not in ``reexported``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in bound_imports(tree).items()
            if name not in read and name not in reexported]


def reexports(module):
    """Names that the package's modules import from ``module``."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                names.update(alias.name for alias in node.names)
    return names


def test_dead_imports_are_found():
    source = "import numpy as np\nfrom .laplacian import mean_curvature, lb_pass\nlb_pass(np)\n"
    assert dead_imports(source) == ["2: mean_curvature"]
    assert dead_imports(source, {"mean_curvature"}) == []
    # a field of the same name is not a read of the import
    assert dead_imports("from .x import h\nclass R:\n    h: float = 0\n") == ["1: h"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_import_is_used_or_reexported(path):
    assert dead_imports(path.read_text(), reexports(path.stem)) == []


PUBLIC_NAMES = [
    "AT_INFINITY", "CloudError", "ConstrainedSystem", "DegenerateNeighborhoodError",
    "FileFormatError", "FrameSet", "IllConditionedStencilError", "MeshError",
    "ParamConfig", "PipelineError", "PointCloud", "QualityReport", "SolveError",
    "SparseOperator", "SpatialIndex", "SphereInterpolator", "SphereMeshError",
    "SphericalMap", "SurfaceMesh", "angle_distortion", "assemble_lb", "balance",
    "build_frames", "build_index", "cloud", "convex_hull", "cube_sphere",
    "delaunay_ratio", "errors", "fileio", "icosphere", "induce_mesh", "initial_map",
    "interpolate_to_cloud", "inv_north", "inv_south", "is_infinite", "laplacian",
    "lb_coefficients", "loop_subdivide", "mean_curvature", "mesh", "meshing",
    "metrics", "mls_fit", "multilevel", "ns_iterate", "param", "parameterize",
    "pole_distances", "proj_north", "proj_south", "projections", "quad_mesh",
    "quality_report", "read_cloud", "read_map", "solve",
    "sphere_triangulation", "spherical_delaunay", "weights", "write_cloud",
    "write_map", "write_mesh",
]


def test_public_names():
    assert sorted(spheremesh.__all__) == PUBLIC_NAMES
