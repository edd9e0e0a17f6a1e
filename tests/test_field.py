import itertools
import random

import pytest

import field_oracle as oracle
from pnoise import field as fp
from pnoise.errors import DependentBasis, Infeasible
from pnoise.field import (Mat, block_diag, column_reduce, default_prime,
                          in_span, is_prime, kernel_basis, quotient_map,
                          rank, solve, span_contains)


def test_is_prime():
    assert [p for p in range(-3, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(2.0) and not is_prime(True)


@pytest.mark.parametrize("raw", ["4", "1", "0", "-3"])
def test_default_prime_refuses_non_primes(monkeypatch, raw):
    monkeypatch.setenv("PNOISE_FIELD", raw)
    with pytest.raises(ValueError, match="not prime"):
        default_prime()


def test_rank_identity():
    assert rank(Mat.identity(2, 2)) == 2


def test_rank_first_map_of_line_example():
    # hand elimination: rows (1,0,1),(1,1,1) independent over F_3
    m = Mat.from_rows([[1, 0, 1], [1, 1, 1]], 3)
    assert rank(m) == 2


def test_rank_zero():
    assert rank(Mat.zeros(3, 4, 2)) == 0


def test_kernel_identity():
    assert kernel_basis(Mat.identity(3, 5)).cols == 0


def test_kernel_sum_parity():
    k = kernel_basis(Mat.from_rows([[1, 1]], 2))
    assert k.cols == 1 and k.col(0) == (1, 1)


def test_kernel_projection_f3():
    k = kernel_basis(Mat.from_rows([[1, 0], [0, 0]], 3))
    assert k.cols == 1 and k.col(0) == (0, 1)


def test_solve_identity():
    b = Mat.from_rows([[1], [2]], 3)
    assert solve(Mat.identity(2, 3), b).data == b.data


def test_solve_sum():
    m = Mat.from_rows([[1, 1]], 2)
    x = solve(m, Mat.from_rows([[1]], 2))
    assert (m @ x).data == ((1,),)


def test_solve_infeasible():
    with pytest.raises(Infeasible):
        solve(Mat.zeros(2, 2, 2), Mat.from_rows([[1], [0]], 2))


def test_quotient_empty_basis():
    q = quotient_map(Mat.zeros(2, 0, 2), 2)
    assert (q.rows, q.cols) == (2, 2) and rank(q) == 2


def test_quotient_full_basis():
    q = quotient_map(Mat.identity(2, 3), 2)
    assert q.rows == 0


def test_quotient_diagonal_f2():
    b = Mat.from_cols([(1, 1)], 2, 2)
    q = quotient_map(b, 2)
    assert q.rows == 1 and rank(q) == 1 and (q @ b).is_zero()


def test_quotient_dependent():
    with pytest.raises(DependentBasis):
        quotient_map(Mat.from_cols([(1, 1), (1, 1)], 2, 2), 2)


def _random_mat(rng, p, rows, cols):
    return Mat.from_rows([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_and_solve_roundtrip(p):
    rng = random.Random(p * 17)
    for _ in range(60):
        m = _random_mat(rng, p, rng.randrange(5), rng.randrange(5))
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        assert (m @ k).is_zero()
        x = _random_mat(rng, p, m.cols, 1)
        b = m @ x
        assert (m @ solve(m, b)).data == b.data


def test_quotient_then_kernel_spans_basis():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([2, 3])
        dim = rng.randrange(1, 5)
        cand = _random_mat(rng, p, dim, rng.randrange(dim + 1))
        b = column_reduce(cand)
        q = quotient_map(b, dim)
        k = kernel_basis(q)
        assert rank(b.hstack(k)) == rank(b) == rank(k)


def test_column_reduce_canonical():
    m1 = Mat.from_cols([(1, 1, 0), (0, 1, 1)], 3, 2)
    m2 = Mat.from_cols([(1, 0, 1), (0, 1, 1), (1, 1, 0)], 3, 2)  # same span
    assert column_reduce(m1).data == column_reduce(m2).data


def test_in_span():
    b = Mat.from_cols([(1, 1, 0)], 3, 2)
    assert in_span(b, (1, 1, 0))
    assert not in_span(b, (1, 0, 0))


def test_span_contains_matches_in_span():
    rng = random.Random(10)
    for _ in range(40):
        p = rng.choice((2, 3))
        basis = column_reduce(_random_mat(rng, p, 3, rng.randrange(4)))
        other = _random_mat(rng, p, 3, rng.randrange(3))
        assert span_contains(basis, other) == \
            all(in_span(basis, c) for c in other.columns())


def test_block_diag_and_apply():
    m = block_diag([Mat.identity(1, 2), Mat.from_rows([[1, 1]], 2)], 2)
    assert (m.rows, m.cols) == (2, 3)
    assert m.apply((1, 1, 1)) == (1, 0)


def test_matmul_associative():
    rng = random.Random(9)
    for _ in range(20):
        a = _random_mat(rng, 3, 2, 3)
        b = _random_mat(rng, 3, 3, 2)
        c = _random_mat(rng, 3, 2, 4)
        assert ((a @ b) @ c).data == (a @ (b @ c)).data


def test_enumerate_consistency_with_bruteforce_rank():
    # oracle: rank == size of largest independent subset, checked by brute force
    rng = random.Random(11)
    for _ in range(15):
        p = 2
        m = _random_mat(rng, p, 3, 3)
        cols = m.columns()
        best = 0
        for k in range(4):
            for sub in itertools.combinations(range(3), k):
                vecs = [cols[j] for j in sub]
                # independent iff no nonzero combination vanishes
                dep = False
                for coeffs in itertools.product(range(p), repeat=k):
                    if any(coeffs) and all(
                            sum(c * v[i] for c, v in zip(coeffs, vecs)) % p == 0
                            for i in range(3)):
                        dep = True
                        break
                if not dep:
                    best = max(best, k)
        assert rank(m) == best


def _any_mat(rng, p, rows, cols):
    """A rows x cols matrix, zero rows or columns allowed, of a random rank
    and density: a product through a random inner size, its entries thinned
    to zeros at a random rate."""
    inner = rng.randrange(max(rows, cols) + 1)
    m = Mat(p, rows, inner, tuple(tuple(rng.randrange(p) for _ in range(inner))
                                  for _ in range(rows))) @ \
        Mat(p, inner, cols, tuple(tuple(rng.randrange(p) for _ in range(cols))
                                  for _ in range(inner)))
    if inner == 0 or rng.random() < 0.3:
        keep = rng.random()
        m = Mat(p, rows, cols, tuple(
            tuple(rng.randrange(p) if rng.random() < keep else 0
                  for _ in range(cols)) for _ in range(rows)))
    return m


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernels_match_the_first_written_ones(p):
    # byte for byte: the bases key memos and order the witnesses
    rng = random.Random(100 + p)
    inside = outside = 0
    for _ in range(600):
        rows, cols = rng.randrange(6), rng.randrange(6)
        m = _any_mat(rng, p, rows, cols)
        assert fp._row_echelon(m) == oracle.row_echelon(m)
        got, want = column_reduce(m), oracle.column_reduce(m)
        assert (got.rows, got.cols, got.data) == \
            (want.rows, want.cols, want.data)
        assert fp.pivot_rows(got) == oracle.pivot_rows(want)
        n = _any_mat(rng, p, cols, rng.randrange(6))
        got, want = m @ n, oracle.matmul(m, n)
        assert (got.rows, got.cols, got.data) == \
            (want.rows, want.cols, want.data)
        # colspan(m n) lies in colspan(m); a random matrix mostly does not
        basis = column_reduce(m)
        for other in (m @ n, _any_mat(rng, p, rows, rng.randrange(6))):
            held = span_contains(basis, other)
            assert held == oracle.span_contains(basis, other)
            inside += held
            outside += not held
    assert inside > 300 and outside > 150
