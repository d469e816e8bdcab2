"""Exact linear algebra over the rationals and Gaussian rationals.

Scalars are complex numbers a + b*i with rational a, b (GaussRational, built
on fractions.Fraction).  Matrices are immutable and row-major (QiMatrix);
column spans of matrices are Subspace values kept in a canonical reduced
column echelon form, so two subspaces are equal exactly when their stored
bases are equal.  There is no floating point anywhere in this module.

The arithmetic runs on Python ints.  Each row of an input (for a product,
each row of the left factor and each column of the right one) is scaled by
the lcm of its denominators: a real row becomes a list of ints, a row with
any imaginary part an int list of real parts and one of imaginary parts,
over Z[i].  The real branch is taken whenever every imaginary part of the
input is zero, which is the common case (nilpotents, bilinear forms and
Lefschetz matrices are real).  Elimination is fraction-free Gauss-Jordan
that divides each updated row by its integer content; determinants and
leading principal minors come from Bareiss elimination (Bareiss, Math.
Comp. 22, 1968), whose k-th pivot is the k-th leading principal minor.  A
result is normalised once, at the end: every output entry is one reduced
Fraction per real or imaginary part, so rank, containment and positivity
verdicts are exactly those of arithmetic on reduced fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction, "GaussRational"]


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


class NotHermitian(ValueError):
    """A matrix that must be Hermitian is not."""


class SingularMatrix(ValueError):
    """A matrix that must be invertible is singular."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussRational:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def conj(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Squared modulus re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.re / n, -self.im / n)

    def __add__(self, other: Scalar) -> "GaussRational":
        other = as_gauss(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussRational":
        other = as_gauss(other)
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Scalar) -> "GaussRational":
        return as_gauss(other) - self

    def __mul__(self, other: Scalar) -> "GaussRational":
        other = as_gauss(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussRational":
        return self * as_gauss(other).inverse()

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)
_FRACTION_ZERO = Fraction(0)


def as_gauss(x: Scalar) -> GaussRational:
    """Promote an int, Fraction or GaussRational to GaussRational."""
    if isinstance(x, GaussRational):
        return x
    return GaussRational(_frac(x))


def i_power(k: int) -> GaussRational:
    """i^k for any integer k."""
    return (ONE, I, -ONE, -I)[k % 4]


def neg_one_power(k: int) -> int:
    """(-1)^k for any integer k."""
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# the integer core
#
# An integer form (re, im, scales) stands for the vectors
# (re[k] + i*im[k]) / scales[k]; im is None on the real branch.


def _quotient(re: int, im: int, den: int) -> GaussRational:
    """(re + im*i) / den for a positive den: the one normalisation step."""
    if not re and not im:
        return ZERO
    return GaussRational(Fraction(re, den) if re else _FRACTION_ZERO,
                         Fraction(im, den) if im else _FRACTION_ZERO)


def _int_form(vectors: Sequence[Sequence[GaussRational]]) -> tuple:
    """Integer form of GaussRational vectors, each scaled by the lcm of its
    denominators."""
    re_rows, scales = [], []
    if all(not x.im for v in vectors for x in v):
        for v in vectors:
            parts = [x.re for x in v]
            dens = [f.denominator for f in parts]
            s = lcm(*dens)
            if s == 1:
                re_rows.append([f.numerator for f in parts])
            else:
                re_rows.append([f.numerator * (s // d) for f, d in zip(parts, dens)])
            scales.append(s)
        return re_rows, None, scales
    im_rows = []
    for v in vectors:
        s = lcm(*[x.re.denominator for x in v], *[x.im.denominator for x in v])
        re_rows.append([x.re.numerator * (s // x.re.denominator) for x in v])
        im_rows.append([x.im.numerator * (s // x.im.denominator) for x in v])
        scales.append(s)
    return re_rows, im_rows, scales


def _eliminate(re: list, im: Optional[list], ncols: int, reduced: bool = True) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the pivot columns.  Afterwards row r < len(pivots) has a positive
    real pivot p_r in column pivots[r], integer content 1 and (when reduced)
    zeros in every other pivot column, so row r / p_r is row r of the
    reduced row echelon form; the remaining rows are zero.  Without reduced
    only the rows below each pivot are cleared, which is enough for a rank.
    """
    if im is None:
        return _eliminate_real(re, ncols, reduced)
    return _eliminate_gauss(re, im, ncols, reduced)


def _eliminate_real(rows: list, ncols: int, reduced: bool) -> list:
    pivots = []
    n = len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        k = next((k for k in range(r, n) if rows[k][c]), None)
        if k is None:
            continue
        prow = rows[k]
        rows[k] = rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[r] = prow
        p = prow[c]
        for i in range(0 if reduced else r + 1, n):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return pivots


def _eliminate_gauss(re: list, im: list, ncols: int, reduced: bool) -> list:
    pivots = []
    n = len(re)
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        k = next((k for k in range(r, n) if re[k][c] or im[k][c]), None)
        if k is None:
            continue
        pr, pi = re[k], im[k]
        re[k], im[k] = re[r], im[r]
        a, b = pr[c], pi[c]
        if b:  # multiply by the conjugate pivot, so that the pivot is real
            pr, pi = ([a * x + b * y for x, y in zip(pr, pi)],
                      [a * y - b * x for x, y in zip(pr, pi)])
        g = gcd(*pr, *pi)
        if pr[c] < 0:
            g = -g
        if g != 1:
            pr, pi = [x // g for x in pr], [y // g for y in pi]
        re[r], im[r] = pr, pi
        p = pr[c]
        for i in range(0 if reduced else r + 1, n):
            fr, fi = re[i][c], im[i][c]
            if (fr or fi) and i != r:
                g = gcd(p, fr, fi)
                a, fr, fi = p // g, fr // g, fi // g
                # a * row_i - (fr + fi*i) * pivot row
                nr = [a * x - fr * y + fi * z for x, y, z in zip(re[i], pr, pi)]
                ni = [a * w - fr * z - fi * y for w, y, z in zip(im[i], pr, pi)]
                g = gcd(*nr, *ni)
                if g > 1:
                    nr, ni = [x // g for x in nr], [y // g for y in ni]
                re[i], im[i] = nr, ni
        pivots.append(c)
    return pivots


def _bareiss(re: list, im: Optional[list], pivoting: bool):
    """Bareiss elimination of a square integer matrix, replacing its rows.

    Yields (pivot re, pivot im, sign) at each step: the k-th pivot is the
    k-th leading principal minor of the matrix with its rows permuted by the
    swaps so far, whose parity sign records.  Without pivoting the rows are
    never swapped.  Stops after the first zero pivot.
    """
    n = len(re)
    sign, u, v = 1, 1, 0  # u + v*i is the previous pivot
    for k in range(n):
        if pivoting and not (re[k][k] or (im and im[k][k])):
            for j in range(k + 1, n):
                if re[j][k] or (im and im[j][k]):
                    re[k], re[j] = re[j], re[k]
                    if im:
                        im[k], im[j] = im[j], im[k]
                    sign = -sign
                    break
        pr = re[k][k]
        pi = im[k][k] if im else 0
        yield pr, pi, sign
        if not pr and not pi:
            return
        if im is None:
            rk = re[k]
            for j in range(k + 1, n):
                rj, f = re[j], re[j][k]
                re[j] = rj[:k + 1] + [(pr * x - f * y) // u
                                      for x, y in zip(rj[k + 1:], rk[k + 1:])]
        else:
            rk, ik, nrm = re[k], im[k], u * u + v * v
            for j in range(k + 1, n):
                rj, ij, fr, fi = re[j], im[j], re[j][k], im[j][k]
                # t = pivot * x - f * y, then t / (u + v*i) = t * (u - v*i) / nrm
                tr = [pr * x - pi * w - fr * y + fi * z
                      for x, w, y, z in zip(rj[k + 1:], ij[k + 1:], rk[k + 1:], ik[k + 1:])]
                ti = [pr * w + pi * x - fr * z - fi * y
                      for x, w, y, z in zip(rj[k + 1:], ij[k + 1:], rk[k + 1:], ik[k + 1:])]
                re[j] = rj[:k + 1] + [(a * u + b * v) // nrm for a, b in zip(tr, ti)]
                im[j] = ij[:k + 1] + [(b * u - a * v) // nrm for a, b in zip(tr, ti)]
        u, v = pr, pi


def _solution_row(re: list, im: Optional[list], r: int, p: int, cols) -> list:
    """Entries cols of reduced row r with pivot p, as GaussRationals."""
    row = re[r]
    if im is None:
        return [_quotient(row[j], 0, p) for j in cols]
    irow = im[r]
    return [_quotient(row[j], irow[j], p) for j in cols]


@dataclass(frozen=True)
class QiMatrix:
    """Immutable matrix with GaussRational entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "QiMatrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        ncols = len(rows[0])
        if cols is not None and cols != ncols:
            raise DimensionMismatch("row length disagrees with declared column count")
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(as_gauss(x) for x in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "QiMatrix":
        if not columns:
            return cls(rows or 0, 0, ())
        nrows = len(columns[0])
        if rows is not None and rows != nrows:
            raise DimensionMismatch("column length disagrees with declared row count")
        return cls.from_rows([[columns[j][i] for j in range(len(columns))] for i in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "QiMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QiMatrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[Scalar]) -> "QiMatrix":
        n = len(diag)
        return cls(n, n, tuple(as_gauss(diag[i]) if i == j else ZERO for i in range(n) for j in range(n)))

    @cached_property
    def _row_form(self) -> tuple:
        """Integer form of the rows; never mutated."""
        return _int_form(self.to_rows())

    @cached_property
    def _col_form(self) -> tuple:
        """Integer form of the columns; never mutated."""
        return _int_form(self.columns())

    def entry(self, i: int, j: int) -> GaussRational:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def column(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "QiMatrix":
        return QiMatrix(self.cols, self.rows,
                        tuple(self.entries[i * self.cols + j]
                              for j in range(self.cols) for i in range(self.rows)))

    def conj(self) -> "QiMatrix":
        return QiMatrix(self.rows, self.cols, tuple(x.conj() for x in self.entries))

    def conj_transpose(self) -> "QiMatrix":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def is_real(self) -> bool:
        return all(x.is_real() for x in self.entries)

    def __add__(self, other: "QiMatrix") -> "QiMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return QiMatrix(self.rows, self.cols,
                        tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "QiMatrix") -> "QiMatrix":
        return self + (-other)

    def __neg__(self) -> "QiMatrix":
        return QiMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def scale(self, c: Scalar) -> "QiMatrix":
        c = as_gauss(c)
        return QiMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __matmul__(self, other: "QiMatrix") -> "QiMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        are, aim, ls = self._row_form
        bre, bim, ms = other._col_form
        if aim is None and bim is None:
            out = tuple(_quotient(sum(map(mul, a, b)), 0, l * m)
                        for a, l in zip(are, ls) for b, m in zip(bre, ms))
        else:
            out = tuple(_quotient(*_dot(a, ai, b, bi), l * m)
                        for a, ai, l in zip(are, aim or [None] * self.rows, ls)
                        for b, bi, m in zip(bre, bim or [None] * other.cols, ms))
        return QiMatrix(self.rows, other.cols, out)

    def power(self, k: int) -> "QiMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = QiMatrix.identity(self.rows)
        for _ in range(k):
            result = result @ self
        return result

    def apply(self, vector: Sequence[Scalar]) -> list:
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length disagrees with matrix columns")
        (b,), bim, (m,) = _int_form([[as_gauss(x) for x in vector]])
        are, aim, ls = self._row_form
        if aim is None and bim is None:
            return [_quotient(sum(map(mul, a, b)), 0, l * m) for a, l in zip(are, ls)]
        bi = bim[0] if bim else None
        return [_quotient(*_dot(a, ai, b, bi), l * m)
                for a, ai, l in zip(are, aim or [None] * self.rows, ls)]

    def hstack(self, other: "QiMatrix") -> "QiMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        a, b, ca, cb = self.entries, other.entries, self.cols, other.cols
        out = []
        for i in range(self.rows):
            out.extend(a[i * ca:(i + 1) * ca])
            out.extend(b[i * cb:(i + 1) * cb])
        return QiMatrix(self.rows, ca + cb, tuple(out))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QiMatrix":
        return QiMatrix(len(row_idx), len(col_idx),
                        tuple(self.entries[i * self.cols + j] for i in row_idx for j in col_idx))

    def det(self) -> GaussRational:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        re, im, scales = _rows_of(self)
        pr, pi, sign = 1, 0, 1  # the empty matrix has determinant 1
        for pr, pi, sign in _bareiss(re, im, pivoting=True):
            pass  # the last pivot is the determinant of the scaled rows
        return _quotient(sign * pr, sign * pi, prod(scales))

    def inverse(self) -> "QiMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        re, im, scales = self._row_form
        unit = [[s if i == j else 0 for j in range(n)] for i, s in enumerate(scales)]
        aug_re = [row + e for row, e in zip(re, unit)]
        aug_im = None if im is None else [row + [0] * n for row in im]
        pivots = _eliminate(aug_re, aug_im, 2 * n)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        rows = [_solution_row(aug_re, aug_im, r, aug_re[r][r], range(n, 2 * n)) for r in range(n)]
        return QiMatrix(n, n, tuple(x for row in rows for x in row))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)) + "]"


def _dot(a: list, ai: Optional[list], b: list, bi: Optional[list]) -> tuple:
    """(re, im) of the Gaussian integer dot product (a + ai*i).(b + bi*i)."""
    re = sum(map(mul, a, b))
    im = 0
    if ai is not None:
        im += sum(map(mul, ai, b))
        if bi is not None:
            re -= sum(map(mul, ai, bi))
    if bi is not None:
        im += sum(map(mul, a, bi))
    return re, im


def _rows_of(m: QiMatrix) -> tuple:
    """m's cached row form with fresh outer lists.  Elimination replaces and
    swaps rows but never changes one, so the cache stays intact."""
    re, im, scales = m._row_form
    return list(re), None if im is None else list(im), scales


def rank(m: QiMatrix) -> int:
    re, im, _ = _rows_of(m)
    return len(_eliminate(re, im, m.cols, reduced=False))


def kernel(m: QiMatrix) -> "Subspace":
    """Null space of m, as a subspace of the domain (dimension = m.cols)."""
    re, im, _ = _rows_of(m)
    pivots = _eliminate(re, im, m.cols)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = _quotient(-re[r][f], 0 if im is None else -im[r][f], re[r][p])
        vectors.append(v)
    return Subspace.span(m.cols, vectors)


def image(m: QiMatrix) -> "Subspace":
    """Column space of m, as a subspace of the codomain."""
    return Subspace.span(m.rows, m.columns())


def solve_unique(a: QiMatrix, b: Sequence[Scalar]) -> list:
    """Solve a x = b where a has full column rank; raises if inconsistent."""
    if len(b) != a.rows:
        raise DimensionMismatch("right-hand side length disagrees")
    re, im, _ = _int_form([a.row_list(i) + [as_gauss(b[i])] for i in range(a.rows)])
    pivots = _eliminate(re, im, a.cols + 1)
    if a.cols in pivots:
        raise ValueError("inconsistent system")
    if len(pivots) != a.cols:
        raise ValueError("solution is not unique")
    return [_solution_row(re, im, r, re[r][r], (a.cols,))[0] for r in range(a.cols)]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^ambient_dim spanned by Gaussian-rational vectors.

    The stored basis matrix (columns = basis vectors) is always the reduced
    column echelon form of any spanning set, so dataclass equality decides
    subspace equality.
    """

    ambient_dim: int
    basis: QiMatrix

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        """Canonical subspace spanned by the given vectors (may be dependent)."""
        vecs = [[as_gauss(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length disagrees with ambient dimension")
        re, im, _ = _int_form(vecs)
        pivots = _eliminate(re, im, ambient_dim)
        k = len(pivots)
        del re[k:]
        if im is not None:
            del im[k:]
            if not any(map(any, im)):
                im = None
        scales = [re[r][p] for r, p in enumerate(pivots)]
        if im is None:
            entries = tuple(_quotient(re[j][i], 0, scales[j])
                            for i in range(ambient_dim) for j in range(k))
        else:
            entries = tuple(_quotient(re[j][i], im[j][i], scales[j])
                            for i in range(ambient_dim) for j in range(k))
        basis = QiMatrix(ambient_dim, k, entries)
        # the reduced rows are the basis columns' integer form already
        basis.__dict__["_col_form"] = (re, im, scales)
        return cls(ambient_dim, basis)

    @classmethod
    def from_matrix(cls, m: QiMatrix) -> "Subspace":
        return cls.span(m.rows, m.columns())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QiMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QiMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def vectors(self) -> list:
        return self.basis.columns()

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length disagrees with ambient dimension")
        stacked = self.basis.hstack(QiMatrix.from_columns([list(v)], rows=self.ambient_dim))
        return rank(stacked) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        return rank(self.basis.hstack(other.basis)) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_matrix(self.basis.hstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of [A | -B] on stacked coefficients."""
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.hstack(-other.basis)
        ker = kernel(stacked)
        vectors = []
        for coeffs in ker.basis.columns():
            vectors.append(self.basis.apply(coeffs[: self.dim]))
        return Subspace.span(self.ambient_dim, vectors)

    def conjugate(self) -> "Subspace":
        return Subspace.span(self.ambient_dim, [[x.conj() for x in v] for v in self.vectors()])

    def apply(self, m: QiMatrix) -> "Subspace":
        """Image of this subspace under the linear map m."""
        if m.cols != self.ambient_dim:
            raise DimensionMismatch("map domain disagrees with ambient dimension")
        return Subspace.from_matrix(m @ self.basis)

    def coordinates_of(self, v: Sequence[Scalar]) -> list:
        """Coordinates of v in the canonical basis; raises if v is outside."""
        return solve_unique(self.basis, list(v))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")


def sum_all(ambient_dim: int, spaces: Iterable[Subspace]) -> Subspace:
    vectors = []
    for s in spaces:
        if s.ambient_dim != ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        vectors.extend(s.vectors())
    return Subspace.span(ambient_dim, vectors)


def extend_basis(inner: Subspace, outer: Subspace) -> list:
    """Columns of outer's canonical basis that extend inner to outer.

    The returned vectors span a complement of inner in outer; the greedy
    pivot choice over outer's echelon basis makes the result deterministic:
    a basis vector of outer is taken exactly when it is not in the span of
    inner and the outer basis vectors before it, that is, when its column
    is a pivot column of the matrix [inner basis | outer basis].
    Raises if inner is not contained in outer.
    """
    if not outer.contains(inner):
        raise ValueError("inner subspace is not contained in outer subspace")
    re, im, _ = _int_form(inner.basis.hstack(outer.basis).to_rows())
    pivots = _eliminate(re, im, inner.dim + outer.dim, reduced=False)
    outer_vectors = outer.vectors()
    return [outer_vectors[c - inner.dim] for c in pivots if c >= inner.dim]


def first_nonpositive_minor(h: QiMatrix) -> Optional[int]:
    """1-based index of the first non-positive leading principal minor.

    Returns None when every leading principal minor is a positive rational,
    which by the Sylvester criterion is equivalent to h being positive
    definite.  h must be Hermitian, so its leading principal minors are
    real.  They are read off as the pivots of Bareiss elimination without
    row swaps, on the rows scaled to integers by positive factors, which
    keeps every sign; a zero minor already refutes positive definiteness.
    """
    if h.rows != h.cols:
        raise DimensionMismatch("positivity of a non-square matrix")
    if h != h.conj_transpose():
        raise NotHermitian("matrix is not Hermitian")
    re, im, _ = _rows_of(h)
    for k, (pr, pi, _) in enumerate(_bareiss(re, im, pivoting=False)):
        if pi:
            raise NotHermitian("elimination produced a non-real pivot")
        if pr <= 0:
            return k + 1
    return None


def is_positive_definite_hermitian(h: QiMatrix) -> bool:
    """Exact positive definiteness of a Hermitian Gaussian-rational matrix."""
    return first_nonpositive_minor(h) is None
