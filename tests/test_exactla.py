"""Exact linear algebra layer: scalars, matrices, subspaces, filtrations,
reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbhodge.exactla import (
    DimensionMismatch,
    GaussRational,
    I,
    NotHermitian,
    QiMatrix,
    SingularMatrix,
    Subspace,
    as_gauss,
    extend_basis,
    first_nonpositive_minor,
    i_power,
    image,
    is_positive_definite_hermitian,
    kernel,
    rank,
    solve_unique,
    sum_all,
)
from orbhodge.filtration import DecreasingFiltration, IncreasingFiltration
from orbhodge.report import Report

from oracles import (frac_add, frac_conj, frac_det, frac_first_nonpositive_minor, frac_hstack,
                     frac_inverse, frac_kernel_basis, frac_matmul, frac_power, frac_rank,
                     frac_scale, frac_solve, frac_span_basis, frac_submatrix, frac_transpose,
                     int_matrix, random_nilpotent, random_qi_rows, random_real_invertible,
                     random_unimodular_int)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)
gauss = st.builds(GaussRational, rationals, rationals)


@given(gauss, gauss, gauss)
def test_gauss_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.norm() == (a * a.conj()).re
    if not a.is_zero():
        assert a * a.inverse() == GaussRational(1, 0)


def test_gauss_powers_of_i():
    assert I * I == GaussRational(-1, 0)
    assert [i_power(k) for k in range(4)] == [GaussRational(1, 0), I, GaussRational(-1, 0), -I]
    assert i_power(-1) == -I
    assert as_gauss(Fraction(2, 3)) == GaussRational(Fraction(2, 3), 0)


def _random_matrix(rng, rows, cols):
    return QiMatrix.from_rows(
        [[GaussRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2)))
          for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_and_subspace_containment():
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        ker, img = kernel(m), image(m)
        assert ker.dim + img.dim == cols
        assert rank(m) == img.dim
        assert ker.dim == cols - rank(m)
        for v in ker.vectors():
            assert all(c.is_zero() for c in m.apply(v))
        for v in img.vectors():
            assert img.contains(Subspace.span(rows, [v]))


def test_solve_unique_and_inverse():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = int_matrix(random_unimodular_int(rng, n))
        b = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        x = solve_unique(g, b)
        assert [as_gauss(c) for c in g.apply(x)] == [as_gauss(c) for c in b]
        assert g @ g.inverse() == QiMatrix.identity(n)
    with pytest.raises(SingularMatrix):
        QiMatrix.zeros(2, 2).inverse()
    with pytest.raises(ValueError, match="not unique"):
        solve_unique(QiMatrix.from_rows([[1, 1], [1, 1]]), [1, 1])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unique(QiMatrix.from_rows([[1, 1], [1, 1]]), [1, 0])


def test_determinant_is_multiplicative():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        b = _random_matrix(rng, n, n)
        assert (a @ b).det() == a.det() * b.det()


def test_matrix_shape_errors():
    a = QiMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a @ a
    with pytest.raises(ValueError):
        QiMatrix.from_rows([[1], [1, 2]])


def test_subspace_canonical_form_is_representation_independent():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        vecs = [[GaussRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))
                 for _ in range(n)] for _ in range(rng.randint(1, 4))]
        s = Subspace.span(n, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = [[c * GaussRational(2, 1) for c in v] for v in shuffled]
        assert Subspace.span(n, scaled) == s
        for v in vecs:
            assert s.contains(Subspace.span(n, [v]))
            coords = solve_unique(s.basis, v)
            rebuilt = [sum((b[k] * coords[j] for j, b in enumerate(s.vectors())),
                           GaussRational(0, 0)) for k in range(n)]
            assert rebuilt == [as_gauss(c) for c in v]


def test_subspace_lattice_identities():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = Subspace.span(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
        b = Subspace.span(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)])
        meet, join = a.intersect(b), a.sum(b)
        assert meet.dim + join.dim == a.dim + b.dim
        assert a.contains(meet) and b.contains(meet)
        assert join.contains(a) and join.contains(b)
        assert sum_all(n, [a, b]) == join
    z, f = Subspace.zero(3), Subspace.full(3)
    assert z.is_zero() and f.is_full()
    assert f.intersect(z) == z and f.sum(z) == f


def test_subspace_apply_and_conjugate():
    s = Subspace.span(2, [[GaussRational(1, 0), I]])
    assert s.conjugate() == Subspace.span(2, [[GaussRational(1, 0), -I]])
    g = QiMatrix.from_rows([[0, 1], [1, 0]])
    assert s.apply(g) == Subspace.span(2, [[I, GaussRational(1, 0)]])
    assert s.conjugate().conjugate() == s


def test_extend_basis_produces_complement():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 6)
        inner = Subspace.span(n, [[rng.randint(-2, 2) for _ in range(n)]])
        extra = extend_basis(inner, Subspace.full(n))
        assert len(extra) == n - inner.dim
        total = Subspace.span(n, list(inner.vectors()) + list(extra))
        assert total.is_full()


def test_hermitian_minor_scan():
    pd = QiMatrix.from_rows([[2, I], [-I, 1]])
    assert is_positive_definite_hermitian(pd)
    assert first_nonpositive_minor(pd) is None
    indef = QiMatrix.from_rows([[1, 0], [0, -1]])
    assert first_nonpositive_minor(indef) == 2
    assert first_nonpositive_minor(QiMatrix.from_rows([[0]])) == 1
    with pytest.raises(NotHermitian):
        first_nonpositive_minor(QiMatrix.from_rows([[0, 1], [1, 0]]).scale(I))


def test_minor_scan_matches_congruence_positivity():
    # random change of basis keeps positivity: g* g is positive definite
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_real_invertible(rng, n)
        assert is_positive_definite_hermitian(g.conj_transpose() @ g)


def test_increasing_filtration_contract():
    z, f = Subspace.zero(2), Subspace.full(2)
    mid = Subspace.span(2, [[1, 0]])
    w = IncreasingFiltration.from_map(2, {-1: z, 0: mid, 1: f})
    assert w.at(-5).is_zero() and w.at(7).is_full()
    assert w.jump_indices() == [0, 1]
    # shift convention: W[s]_j = W_{j+s}, so jumps move down by s
    assert w.shift(-3).jump_indices() == [3, 4]
    assert w.shift(-3).at(3) == mid
    with pytest.raises(ValueError):
        IncreasingFiltration.from_map(2, {0: f, 1: mid})


def test_decreasing_filtration_contract():
    z, f = Subspace.zero(2), Subspace.full(2)
    line = Subspace.span(2, [[GaussRational(1, 0), I]])
    d = DecreasingFiltration.from_map(2, {0: f, 1: line, 2: z})
    assert d.at(-3).is_full() and d.at(5).is_zero()
    assert d.jump_indices() == [0, 1]
    assert d.conjugate().at(1) == line.conjugate()
    assert d.shift(-1).at(2) == line
    with pytest.raises(ValueError):
        DecreasingFiltration.from_map(2, {0: line, 1: f})


def test_report_verdicts_and_merge():
    r = Report()
    assert r.verdict() == "pass" and r.ok()
    r.passed("base")
    r.warned("wobble", {"why": "sample"})
    assert r.verdict() == "caveat" and r.ok()
    inner = Report()
    inner.failed("broken", {"at": 3})
    r.merge(inner, prefix="sub:")
    assert r.verdict() == "fail" and not r.ok()
    assert [it.check_id for it in r.failures()] == ["sub:broken"]
    assert [it.check_id for it in r.warnings()] == ["wobble"]
    dicts = r.as_dicts()
    assert dicts[0] == {"check": "base", "status": "pass"}
    assert dicts[1] == {"check": "wobble", "status": "warn", "witness": {"why": "sample"}}


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6), st.integers())
def test_power_matches_repeated_product(n, seed):
    rng = random.Random(seed)
    m = random_nilpotent(rng, n)
    acc = QiMatrix.identity(n)
    for k in range(4):
        assert m.power(k) == acc
        acc = acc @ m


# ---------------------------------------------------------------------------
# agreement with the plain-Fraction oracle on seeded random matrices


def _agreement_cases():
    """200 real and 100 Gaussian matrices of shape 0..9 x 0..9."""
    rng = random.Random(2026)
    cases = []
    for t in range(300):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        if t % 3 == 0:
            cols = rows  # enough square ones for det, inverse and minors
        gaussian = t >= 200
        cases.append((QiMatrix.from_rows(random_qi_rows(rng, rows, cols, gaussian), cols=cols),
                      gaussian))
    return cases


AGREEMENT_CASES = _agreement_cases()


def test_rank_kernel_and_span_agree_with_the_oracle():
    for m, _ in AGREEMENT_CASES:
        assert rank(m) == frac_rank(m)
        assert kernel(m).basis.columns() == frac_kernel_basis(m)
        span = Subspace.span(m.cols, m.to_rows())
        assert span.basis.columns() == frac_span_basis(m.cols, m.to_rows())


def test_solve_and_inverse_agree_with_the_oracle():
    rng = random.Random(2027)
    for m, gaussian in AGREEMENT_CASES:
        b = [row[0] for row in random_qi_rows(rng, m.rows, 1, gaussian)]
        want = frac_solve(m, b)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                solve_unique(m, b)
        else:
            assert solve_unique(m, b) == want
        if m.rows != m.cols:
            continue
        want = frac_inverse(m)
        if want is None:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert m.inverse() == QiMatrix.from_rows(want, cols=m.cols)


def test_det_and_leading_minors_agree_with_the_oracle():
    square = [m for m, _ in AGREEMENT_CASES if m.rows == m.cols]
    assert len(square) >= 100
    for m in square:
        assert m.det() == frac_det(m)
        mh = m.conj_transpose()
        for h in (m + mh, mh @ m):  # indefinite as a rule, and semidefinite
            assert first_nonpositive_minor(h) == frac_first_nonpositive_minor(h)


def _matches(m, rows, cols):
    """m has the oracle's entries, and equals the matrix built from them."""
    return (m.cols == cols and m.to_rows() == rows
            and m == QiMatrix.from_rows(rows, cols=cols))


def test_products_agree_with_the_oracle():
    rng = random.Random(2028)
    more = random.Random(2031)  # the added inputs leave rng's draws as they were
    for a, gaussian in AGREEMENT_CASES:
        k = rng.randint(0, 9)
        b = QiMatrix.from_rows(random_qi_rows(rng, a.cols, k, gaussian), cols=k)
        assert a @ b == QiMatrix.from_rows(frac_matmul(a, b), cols=k)
        v = [row[0] for row in random_qi_rows(rng, a.cols, 1, gaussian)]
        column = QiMatrix.from_rows([[x] for x in v], cols=1)
        assert a.apply(v) == [row[0] for row in frac_matmul(a, column)]
        c = QiMatrix.from_rows(random_qi_rows(more, a.rows, a.cols, gaussian), cols=a.cols)
        assert _matches(a + c, frac_add(a, c), a.cols)
        assert _matches(a - c, frac_add(a, c, -1), a.cols)
        assert _matches(-a, frac_scale(a, -1), a.cols)
        for z in (0, GaussRational(0, Fraction(-3, 7)), random_qi_rows(more, 1, 1, gaussian)[0][0]):
            assert _matches(a.scale(z), frac_scale(a, z), a.cols)
        assert _matches(a.conj(), frac_conj(a), a.cols)
        assert _matches(a.transpose(), frac_transpose(a), a.rows)
        assert _matches(a.hstack(c), frac_hstack(a, c), 2 * a.cols)
        row_idx = sorted(more.sample(range(a.rows), more.randint(0, a.rows)))
        col_idx = sorted(more.sample(range(a.cols), more.randint(0, a.cols)))
        assert _matches(a.submatrix(row_idx, col_idx), frac_submatrix(a, row_idx, col_idx),
                        len(col_idx))
        if a.rows == a.cols:
            for p in range(3):
                assert _matches(a.power(p), frac_power(a, p), a.cols)


def test_equal_matrices_have_one_stored_form():
    rng = random.Random(2030)
    for m, gaussian in AGREEMENT_CASES:
        c = random_qi_rows(rng, 1, 1, True)[0][0]
        if not c.is_zero():
            back = m.scale(c).scale(c.inverse())
            assert back == m and hash(back) == hash(m)
        twice = (m + m) - m
        assert twice == m and hash(twice) == hash(m)
        if not gaussian:
            turned = m.scale(I).scale(-I)
            assert turned == m and turned.im is None
    assert QiMatrix.from_rows([[Fraction(2, 2), GaussRational(Fraction(4, 2))]]) == \
        QiMatrix.from_rows([[1, 2]])
    assert QiMatrix.from_rows([[Fraction(1, 2), Fraction(3, 2)]]).scale(2) == \
        QiMatrix.from_rows([[1, 3]])
    assert QiMatrix.from_rows([[Fraction(1, 3)]]) - QiMatrix.from_rows([[Fraction(1, 3)]]) == \
        QiMatrix.zeros(1, 1)


def test_span_is_invariant_under_scaling_its_vectors():
    rng = random.Random(2029)
    for m, gaussian in AGREEMENT_CASES:
        s = Subspace.span(m.cols, m.to_rows())
        factors = [random_qi_rows(rng, 1, 1, gaussian)[0][0] for _ in range(m.rows)]
        factors = [c if not c.is_zero() else GaussRational(Fraction(-1, 2 ** 40)) for c in factors]
        scaled = [[c * x for x in row] for c, row in zip(factors, m.to_rows())]
        assert Subspace.span(m.cols, scaled) == s
