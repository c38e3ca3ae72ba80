import importlib
import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from spheremesh import (
    ConstrainedSystem,
    PointCloud,
    SolveError,
    assemble_lb,
    param,
    parameterize,
    solve,
)
from spheremesh.laplacian import SparseOperator
from spheremesh.solve import DEFAULT_TOL, _reduced
from spheremesh.synth import blob_cloud

from conftest import disk_grid


def disk_system(spacing=0.08, jitter=0.2, seed=0):
    pts, boundary = disk_grid(spacing, jitter=jitter, seed=seed)
    cloud = PointCloud(pts)
    op = assemble_lb(cloud, k=25)
    return cloud, op, np.flatnonzero(boundary)


class TestSolve:
    def test_identity_is_harmonic_on_disk(self):
        cloud, op, boundary = disk_system()
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        out = solve(ConstrainedSystem(op, boundary, z[boundary]))
        assert np.abs(out - z).max() <= 1e-6

    def test_pin_all_returns_input_verbatim(self):
        cloud, op, _ = disk_system(spacing=0.3)
        values = np.arange(op.n, dtype=complex) * (1 + 2j)
        out = solve(ConstrainedSystem(op, np.arange(op.n), values))
        np.testing.assert_array_equal(out, values)

    def test_annulus_log_harmonic_oracle(self):
        # closed-form harmonic on the annulus: u = ln|z| + 0.4 Re(z)
        nr, nt = 24, 160
        radii = np.linspace(0.5, 1.0, nr)
        theta = 2 * np.pi * np.arange(nt) / nt
        rr, tt = np.meshgrid(radii, theta)
        pts = np.column_stack(
            [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel(),
             np.zeros(rr.size)]
        )
        cloud = PointCloud(pts)
        op = assemble_lb(cloud, k=25)
        r = np.hypot(pts[:, 0], pts[:, 1])
        exact = np.log(r) + 0.4 * pts[:, 0]
        boundary = np.flatnonzero((np.abs(r - 0.5) < 1e-9) | (np.abs(r - 1.0) < 1e-9))
        out = solve(ConstrainedSystem(op, boundary, exact[boundary].astype(complex)))
        assert np.abs(out.real - exact).max() <= 1e-4
        assert np.abs(out.imag).max() <= 1e-8

    def test_linearity(self):
        cloud, op, boundary = disk_system(spacing=0.15, seed=2)
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        g1 = z[boundary]
        g2 = np.conj(z[boundary]) ** 2
        a, b = 2.0 - 1.0j, 0.5j
        lhs = solve(ConstrainedSystem(op, boundary, a * g1 + b * g2))
        rhs = a * solve(ConstrainedSystem(op, boundary, g1)) + b * solve(
            ConstrainedSystem(op, boundary, g2)
        )
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_deterministic(self):
        cloud, op, boundary = disk_system(spacing=0.15, seed=3)
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        out1 = solve(ConstrainedSystem(op, boundary, z[boundary]))
        out2 = solve(ConstrainedSystem(op, boundary, z[boundary]))
        np.testing.assert_array_equal(out1, out2)

    def test_empty_pinned_set_rejected(self):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="empty"):
            ConstrainedSystem(op, np.array([], dtype=int), np.array([]))

    def test_singular_reduced_system(self):
        # free block with a structurally zero row is exactly singular
        matrix = sparse.csr_matrix(
            np.array(
                [
                    [1.0, -1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [-1.0, 0.0, 0.0, 2.0],
                ]
            )
        )
        op = SparseOperator(matrix)
        with pytest.raises(SolveError, match="underdetermined|residual"):
            solve(ConstrainedSystem(op, np.array([3]), np.array([1.0 + 0j])))

    def test_pivoting_keeps_a_row_shifted_system_accurate(self):
        # a diagonally dominant matrix with its rows shifted by one has a
        # diagonal of about 0: without partial pivoting the residual of
        # this solve reaches 1e3 relative and more
        n = 400
        dominant = 2.0 * sparse.identity(n) + 0.1 * sparse.random(
            n, n, density=0.01, random_state=0
        )
        shifted = dominant.tocsr()[np.roll(np.arange(n), 1)]
        assert np.abs(shifted.diagonal()).max() < 0.1
        coupling = sparse.csr_matrix(np.full((n, 1), 0.5))
        matrix = sparse.bmat([[shifted, coupling], [None, sparse.identity(1)]])
        system = ConstrainedSystem(SparseOperator(matrix), [n], [1.0 + 2.0j])
        out = solve(system)
        residual = np.abs(system.operator.matrix[:n] @ out).max()
        assert residual <= 1e-10 * np.abs(0.5 * (1.0 + 2.0j))

    def test_complex_solve_equals_two_real_solves(self):
        cloud, op, boundary = disk_system(spacing=0.12, seed=5)
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        values = np.exp(z[boundary]) + 0.3j * z[boundary] ** 2
        both = solve(ConstrainedSystem(op, boundary, values))
        real = solve(ConstrainedSystem(op, boundary, values.real))
        imag = solve(ConstrainedSystem(op, boundary, values.imag))
        assert np.abs(both - (real + 1j * imag)).max() <= 1e-13 * np.abs(both).max()
        np.testing.assert_array_equal(both[boundary], values)

    def test_debug_line_per_solve(self, caplog):
        cloud, op, boundary = disk_system(spacing=0.2, seed=6)
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        with caplog.at_level(logging.DEBUG, logger="spheremesh.solve"):
            solve(ConstrainedSystem(op, boundary, z[boundary]))
        (record,) = caplog.records
        message = record.getMessage()
        free = op.n - boundary.size
        for field_ in (f"free={free}", f"pinned={boundary.size}",
                       "factor=float32", "nnz_lu=", "refine_steps=",
                       "residual=", "bound="):
            assert field_ in message
        assert re.search(r"nnz_lu=\d+ ", message)


class TestMixedPrecision:
    def test_matches_float64_lu(self):
        cloud, op, boundary = disk_system()
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        out = solve(ConstrainedSystem(op, boundary, z[boundary]))
        free = np.setdiff1d(np.arange(op.n), boundary)
        columns = op.matrix[free].tocsc()
        rhs = -(columns[:, boundary] @ z[boundary])
        reference = splu(columns[:, free].astype(np.complex128)).solve(rhs)
        error = np.abs(out[free] - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()

    def test_ill_conditioned_system_falls_back_to_float64(self, caplog):
        # condition number 1e9: beyond what a float32 factor can refine;
        # the coupling column is M @ y, so the solution is -y
        n = 200
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = q @ np.diag(np.logspace(0, -9, n)) @ q.T
        y = rng.standard_normal(n)
        matrix = sparse.bmat(
            [[sparse.csr_matrix(m), sparse.csr_matrix((m @ y)[:, None])],
             [None, sparse.identity(1)]]
        ).tocsr()
        system = ConstrainedSystem(SparseOperator(matrix), [n], [1.0])
        with caplog.at_level(logging.DEBUG, logger="spheremesh.solve"):
            out = solve(system)
        (record,) = caplog.records
        assert "factor=float64" in record.getMessage()
        residual = np.abs(matrix[:n] @ out).max()
        assert residual <= DEFAULT_TOL * np.abs(m @ y).max()

    @pytest.mark.parametrize("magnitude", [1e-42, 1e36, 0.0])
    def test_extreme_pinned_values_survive_the_float32_cast(
        self, magnitude, caplog
    ):
        cloud, op, boundary = disk_system(spacing=0.12, seed=7)
        z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
        values = magnitude * z[boundary]
        with caplog.at_level(logging.DEBUG, logger="spheremesh.solve"):
            out = solve(ConstrainedSystem(op, boundary, values))
        (record,) = caplog.records
        assert "factor=float32" in record.getMessage()
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[boundary], values)

    def test_traced_peak_holds_one_copy_of_the_free_rows(self, monkeypatch, caplog):
        # The peak is the cast, slice, tocsc and column cut of the rows:
        # two float32 copies live at once (the cast operator and its free
        # rows, then those rows and their CSC form; 4 B value + 4 B int32
        # column per nonzero each), 16 B per nonzero, next to under 40 B
        # per point: the field (16 B) and the row and column pointers.  At
        # k = 25 nonzeros a row that is below 16 + 40 / 25 = 17.6 B per
        # nonzero; 17.2 and 16.5 B were measured on these two systems, and
        # the bound leaves 2.8 B.  The right-hand side and the
        # refinement buffer are made after the factor.  A float64 copy of
        # the free rows beside their float32 copy (20 B per nonzero; 20.8 B
        # traced with the slice before the cast) or a complex copy of the
        # rows (20 B) would break it.
        # SuperLU's own workspace is allocated in C and not traced.
        systems = []

        def recorded(system):
            systems.append(system)
            return solve(system)

        monkeypatch.setattr(param, "solve", recorded)
        parameterize(blob_cloud(5000, seed=0))
        caplog.set_level(logging.INFO, logger="spheremesh.solve")  # no L, U copies
        for system in systems[:2]:
            tracemalloc.start()
            try:
                solve(system)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 20 * system.operator.matrix.nnz


def _uneven_rows(n=300, seed=0):
    """A CSR matrix whose rows hold 0 to 40 entries, unsorted columns."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 41, size=n)
    lengths[::17] = 0
    indices = np.concatenate([rng.choice(n, m, replace=False) for m in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    # some values overflow or underflow float32
    data = rng.normal(size=indices.size) * 10.0 ** rng.integers(-50, 50, indices.size)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _emptied():
    """A CSR matrix and a pinned set that leaves free row 1 with no free
    column and free column 4 with no free row."""
    dense = np.arange(1.0, 37.0).reshape(6, 6)
    dense[1, [1, 2, 4, 5]] = 0.0  # row 1 couples only to the pinned 0 and 3
    dense[[1, 2, 4, 5], 4] = 0.0  # column 4 is reached only from them
    return sparse.csr_matrix(dense), np.array([0, 3])


class TestReduced:
    """``_reduced`` hands SuperLU exactly the arrays of the slice-and-cast
    path: the free rows cast, converted to CSC and cut to the free
    columns, in a copy that shares no memory with the operator."""

    def check(self, matrix, pinned, dtype=np.float32):
        free = np.setdiff1d(np.arange(matrix.shape[0]), pinned)
        with np.errstate(over="ignore", under="ignore"):
            got = _reduced(matrix, free, dtype)
            want = matrix[free].astype(dtype).tocsc()[:, free]
        assert got.format == "csc" and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        # a float64 cast makes no copy, so the slice must: SuperLU gets its
        # own arrays, never the operator that refinement reads
        assert not np.shares_memory(got.data, matrix.data)
        return got

    # every solve factors in float32 first, and in float64 as its fallback
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["default", "fallback"])
    def test_lb_operator(self, dtype):
        _, op, boundary = disk_system()
        self.check(op.matrix, boundary, dtype)

    @pytest.mark.parametrize("pinned", [[5], np.arange(0, 300, 3), np.arange(1, 300)])
    def test_uneven_row_lengths(self, pinned):
        for dtype in (np.float32, np.float64):
            self.check(_uneven_rows(), pinned, dtype)

    def test_pins_that_empty_a_row_and_a_column(self):
        matrix, pinned = _emptied()
        got = self.check(matrix, pinned)
        # free row 1 and free column 4 are row 0 and column 2 of the block
        assert got.indptr[3] == got.indptr[2]
        assert 0 not in got.indices


class TestSystemValidation:
    def test_negative_id_rejected(self):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="pinned id -1 is outside"):
            ConstrainedSystem(op, [-1], [1.0])

    def test_id_past_the_end_rejected(self):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match=f"pinned id {op.n} is outside"):
            ConstrainedSystem(op, [0, op.n], [1.0, 2.0])

    def test_value_count_must_match_ids(self):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="do not match pinned ids"):
            ConstrainedSystem(op, [0, 1, 2], [1.0, 2.0])
        # a single value must not broadcast over several ids
        with pytest.raises(SolveError, match="do not match pinned ids"):
            ConstrainedSystem(op, [0, 1, 2], 1.0)

    @pytest.mark.parametrize(
        "ids", [[1.7], np.array([1.0, 2.0]), [True, False]],
        ids=["fractional", "whole-valued float", "bool"],
    )
    def test_non_integer_ids_rejected(self, ids):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="pinned ids must be integers"):
            ConstrainedSystem(op, ids, np.ones(len(ids)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.inf)])
    def test_non_finite_value_rejected(self, bad):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="pinned value of point 4 is not finite"):
            ConstrainedSystem(op, [3, 4], [1.0, bad])

    def test_repeated_ids_rejected(self):
        _, op, _ = disk_system(spacing=0.3)
        with pytest.raises(SolveError, match="pinned ids repeat"):
            ConstrainedSystem(op, [3, 5, 3], [1.0, 2.0, 3.0])

    def test_residual_beyond_tolerance_raises(self, monkeypatch):
        # the package's ``solve`` attribute is the function, so fetch the module
        monkeypatch.setattr(importlib.import_module("spheremesh.solve"), "DEFAULT_TOL", 0.0)
        cloud, op, boundary = disk_system(spacing=0.3)
        values = cloud.points[boundary, 0] + 1j * cloud.points[boundary, 1]
        with pytest.raises(SolveError, match=r"exceeds tolerance 0 \* ") as exc:
            solve(ConstrainedSystem(op, boundary, values))
        assert exc.value.residual > 0
        assert str(exc.value).startswith(f"residual {exc.value.residual:.3g} ")

    def test_free_ids_are_the_complement_of_the_pinned(self):
        _, op, boundary = disk_system(spacing=0.3)
        ids = boundary[::-1]  # order of the pinned ids does not matter
        system = ConstrainedSystem(op, ids, np.ones(len(ids)))
        np.testing.assert_array_equal(
            system.free_ids, np.setdiff1d(np.arange(op.n), ids)
        )

    def test_free_ids_and_tolerance_are_not_settable(self):
        # a caller-given free set could leave unknowns pinned at 0, and a
        # NaN tolerance would switch the residual check off
        _, op, boundary = disk_system(spacing=0.3)
        values = np.ones(len(boundary))
        with pytest.raises(TypeError):
            ConstrainedSystem(op, boundary, values, free_ids=np.arange(3))
        with pytest.raises(TypeError):
            solve(ConstrainedSystem(op, boundary, values), tol=float("nan"))
