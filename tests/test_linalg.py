import os
import threading
import time

import numpy as np
import pytest

from conftest import exit_code_in_child, reference_svd
from dirh2.linalg import (
    power_iteration_norm,
    read_cmx,
    svd,
    truncation_rank,
    two_cpus,
    two_parts,
    write_cmx,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def jacobi_gram_eigenvalues(a, sweeps=60):
    """Independent oracle: eigenvalues of A^H A by cyclic Jacobi rotations.

    Diagonalizes the Hermitian Gram matrix with explicit 2x2 unitary
    eigen-solves; no reliance on library SVD/eig routines.
    """
    h = a.conj().T @ a
    n = h.shape[0]
    for _ in range(sweeps):
        h = 0.5 * (h + h.conj().T)  # kill roundoff drift
        off = np.abs(h - np.diag(h.diagonal())).max()
        if off < 1e-15 * max(abs(h.diagonal().real).max(), 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = h[p, q]
                if abs(g) < 1e-300:
                    continue
                mean = 0.5 * (h[p, p].real + h[q, q].real)
                d = 0.5 * (h[p, p].real - h[q, q].real)
                lam = mean + (1.0 if d >= 0 else -1.0) * np.hypot(d, abs(g))
                # two algebraically equal eigenvector forms; take the one
                # farther from cancellation
                v1a = np.array([g, lam - h[p, p].real])
                v1b = np.array([lam - h[q, q].real, np.conj(g)])
                v1 = v1a if np.linalg.norm(v1a) >= np.linalg.norm(v1b) else v1b
                v1 = v1 / np.linalg.norm(v1)
                v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
                u2 = np.stack([v1, v2], axis=1)
                h[:, [p, q]] = h[:, [p, q]] @ u2
                h[[p, q], :] = u2.conj().T @ h[[p, q], :]
    return np.sort(np.abs(h.diagonal().real))[::-1]


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2, dtype=complex))
        assert np.allclose(res.sigma, [1.0, 1.0], atol=1e-15)
        assert np.allclose((res.u * res.sigma) @ res.v.conj().T, np.eye(2), atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = random_complex(rng, 5, 1)[:, 0]
        v = random_complex(rng, 4, 1)[:, 0]
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        res = svd(np.outer(u, v.conj()))
        assert abs(res.sigma[0] - 1.0) < 1e-13
        assert np.all(res.sigma[1:] < 1e-13)

    def test_random_against_gram_oracle(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 8, 5)
        res = svd(a)
        assert np.linalg.norm(a - (res.u * res.sigma) @ res.v.conj().T, 2) <= 1e-12 * res.sigma[0]
        oracle = jacobi_gram_eigenvalues(a.copy())
        assert np.allclose(res.sigma**2, oracle, rtol=1e-10, atol=1e-12)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 9, 6)
        res = svd(a)
        k = res.sigma.size
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(k)) < 1e-12
        assert np.linalg.norm(res.v.conj().T @ res.v - np.eye(k)) < 1e-12

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 6, 6)
        r1, r2 = svd(a), svd(a.copy(order="F"))
        assert np.array_equal(r1.u, r2.u)
        lead = r1.u[np.argmax(np.abs(r1.u), axis=0), np.arange(6)]
        assert np.all(np.abs(lead.imag) < 1e-14)
        assert np.all(lead.real > 0)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (1, 1)])
    def test_stack_equals_per_matrix_calls(self, shape):
        # compression truncates a cluster's factors of one shape in one call
        rng = np.random.default_rng(17)
        stack = np.stack([random_complex(rng, *shape) for _ in range(5)])
        stack[2, :, -1] = 0.0  # a zero column; for 1 x 1 a zero matrix
        res = svd(stack)
        for a, u, sigma, v in zip(stack, res.u, res.sigma, res.v):
            one = svd(a)
            assert np.array_equal(u, one.u)
            assert np.array_equal(sigma, one.sigma)
            assert np.array_equal(v, one.v)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            svd(np.array([[np.nan + 0j]]))


    @pytest.mark.parametrize("shape", [(1, 1), (10, 10), (16, 7), (7, 16), (5, 24, 12), (2, 3, 6, 6)])
    def test_same_bits_as_the_reference(self, shape):
        # the per-call overhead was cut; u, sigma and v keep their bytes
        rng = np.random.default_rng(11)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = svd(a)
        for mine, want in zip((got.u, got.sigma, got.v), reference_svd(a)):
            assert mine.shape == want.shape and mine.dtype == want.dtype
            assert np.array_equal(np.ascontiguousarray(mine).view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


class TestTruncationRank:
    def test_threshold_between_sigma2_and_sigma3(self):
        assert truncation_rank(np.array([5.0, 0.3, 1e-9]), 1e-4) == 2

    def test_zero_matrix(self):
        assert truncation_rank(np.array([0.0, 0.0]), 1e-4) == 0

    def test_at_least_one_when_positive(self):
        assert truncation_rank(np.array([1e-9]), 1e-4) == 1

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = np.sort(rng.random(8))[::-1]
            tols = np.sort(rng.random(2))
            k_small = truncation_rank(s, tols[0])
            k_large = truncation_rank(s, tols[1])
            assert k_large <= k_small

    def test_stack_follows_the_rule_row_by_row(self):
        def rule(s, tol):
            if s[0] == 0.0:
                return 0
            below = np.nonzero(s <= tol)[0]
            return max(int(below[0]) if below.size else s.size, 1)

        rng = np.random.default_rng(4)
        s = -np.sort(-rng.random((30, 6)), axis=1)
        s[3] = 0.0
        s[4, 2:] = 0.0
        tols = rng.random(30) * 0.5
        tols[5] = s[5, 2]  # sigma_3 equal to the tolerance is discarded
        ranks = truncation_rank(s, tols)
        assert ranks.tolist() == [rule(row, tol) for row, tol in zip(s, tols)]
        assert [truncation_rank(row, tol) for row, tol in zip(s, tols)] == ranks.tolist()
        assert truncation_rank(np.zeros((2, 0)), 0.1).tolist() == [0, 0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0]), -1.0)


class TestPowerIteration:
    def test_diagonal(self):
        d = np.array([3.0, 1.0, 0.5])
        est = power_iteration_norm(lambda v: d * v, lambda v: d * v, 3, 50, seed=0)
        assert abs(est - 3.0) < 1e-10

    def test_matches_svd(self):
        rng = np.random.default_rng(21)
        a = random_complex(rng, 16, 16)
        est = power_iteration_norm(
            lambda v: a @ v, lambda v: a.conj().T @ v, 16, 50, seed=2
        )
        assert abs(est - svd(a).sigma[0]) < 1e-8 * svd(a).sigma[0]

    def test_zero_operator(self):
        est = power_iteration_norm(
            lambda v: np.zeros_like(v), lambda v: np.zeros_like(v), 4, 10, seed=0
        )
        assert est == 0.0

    def test_well_separated_spectrum(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            q1, _ = np.linalg.qr(random_complex(rng, 12, 12))
            q2, _ = np.linalg.qr(random_complex(rng, 12, 12))
            s = 2.0 * (1.0 / 1.1) ** np.arange(12)  # ratio exactly 1.1
            a = (q1 * s) @ q2.conj().T
            est = power_iteration_norm(
                lambda v: a @ v, lambda v: a.conj().T @ v, 12, 50, seed=trial
            )
            assert abs(est - 2.0) < 1e-6 * 2.0

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        a = random_complex(rng, 8, 8)
        args = (lambda v: a @ v, lambda v: a.conj().T @ v, 8, 20)
        assert power_iteration_norm(*args, seed=5) == power_iteration_norm(*args, seed=5)


class TestCmx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 5, 3)
        path = tmp_path / "m.cmx"
        write_cmx(path, a)
        assert np.array_equal(read_cmx(path), a)

    def test_layout(self, tmp_path):
        # fixed 2x2: magic, u64 dims, column-major interleaved (re, im) f64
        a = np.array([[1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j]])
        path = tmp_path / "m.cmx"
        write_cmx(path, a)
        raw = path.read_bytes()
        assert raw[:4] == b"CMX1"
        assert np.array_equal(
            np.frombuffer(raw[4:20], dtype="<u8"), np.array([2, 2])
        )
        assert np.array_equal(
            np.frombuffer(raw[20:], dtype="<f8"),
            np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=float),
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cmx"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_cmx(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(29)
        a = random_complex(rng, 4, 4)
        path = tmp_path / "m.cmx"
        write_cmx(path, a)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_cmx(path)


class TestTwoParts:
    def test_first_part_on_the_caller_second_on_the_worker(self):
        names = {}
        two_parts(
            lambda: names.setdefault("first", threading.current_thread().name),
            lambda: names.setdefault("second", threading.current_thread().name),
        )
        assert names == {"first": threading.current_thread().name, "second": "dirh2-worker"}

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    def test_an_exception_reaches_the_caller_once_both_parts_ended(self, failing):
        ended = []

        def part(name, seconds):
            def run():
                time.sleep(seconds)
                ended.append(name)
                if failing in (name, "both"):
                    raise ValueError(name)

            return run

        # the part that does not fail first ends last
        waits = (0.05, 0.0) if failing == "second" else (0.0, 0.05)
        with pytest.raises(ValueError) as info:
            two_parts(part("first", waits[0]), part("second", waits[1]))
        assert sorted(ended) == ["first", "second"]
        assert str(info.value) == ("second" if failing == "second" else "first")
        done = []
        two_parts(lambda: done.append(1), lambda: done.append(2))
        assert sorted(done) == [1, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_call_on_the_worker_runs_both_parts_there(self):
        # a task queued behind the running one would never start, so a call
        # that waited for the worker from the worker would hang: run it in a
        # child that is killed if it does not end
        def nested() -> bool:
            names, errors = [], []

            def part():
                names.append(threading.current_thread().name)

            def failing():
                part()
                raise ValueError("first")

            def on_worker():
                two_parts(part, part)
                try:
                    two_parts(failing, part)
                except ValueError as exc:
                    errors.append(str(exc))

            two_parts(lambda: None, on_worker)
            return names == ["dirh2-worker"] * 4 and errors == ["first"]

        assert exit_code_in_child(nested) == 0

    def test_two_cpus_follows_the_cpus_the_process_may_use(self, cpus):
        cpus(1)
        assert not two_cpus()
        cpus(2)
        assert two_cpus()
