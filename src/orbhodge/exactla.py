"""Exact linear algebra over the rationals and Gaussian rationals.

Scalars are complex numbers a + b*i with rational a, b (GaussRational, built
on fractions.Fraction).  A matrix (QiMatrix) is immutable and has one stored
form: a positive common denominator den and tuples of int rows re and im,
entry (i, j) being (re[i][j] + im[i][j]*i) / den, with im None when every
imaginary part is zero, the common case (nilpotents, bilinear forms and
Lefschetz matrices are real).  The form is canonical, den and the entries
having gcd 1, so matrices are equal exactly when their stored forms are.
Column spans of matrices are Subspace values kept in a canonical reduced
column echelon form, so two subspaces are equal exactly when their stored
bases are equal.  There is no floating point anywhere in this module.

Products, sums, scaling and elimination run on the ints, over Z or, when an
input has an imaginary part, over Z[i]; GaussRational values are made only
by the accessors (entry, row_list, to_rows, column, columns, entries).
Elimination is fraction-free Gauss-Jordan that divides each updated row by
its integer content; determinants and leading principal minors come from
Bareiss elimination (Bareiss, Math. Comp. 22, 1968), whose k-th pivot is the
k-th leading principal minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

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
# Integer rows re, im (im None on the real branch) over a positive scale
# stand for the vectors (re[k] + i*im[k]) / scale.


def _parts(x: Scalar) -> tuple:
    """(re, im) of an exact scalar, each an int or a Fraction."""
    if isinstance(x, GaussRational):
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return x, 0
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _quotient(re: int, im: int, den: int) -> GaussRational:
    """(re + im*i) / den for a positive den: the one normalisation step."""
    if not re and not im:
        return ZERO
    return GaussRational(Fraction(re, den) if re else _FRACTION_ZERO,
                         Fraction(im, den) if im else _FRACTION_ZERO)


def _transpose(rows, ncols: int) -> list:
    """The columns of int rows of length ncols, also when there is no row."""
    return list(zip(*rows)) if rows else [()] * ncols


def _times(x, y_columns) -> list:
    """Integer matrix product of the rows x and the matrix with columns y_columns."""
    return [[sum(map(mul, r, c)) for c in y_columns] for r in x]


def _plus(x, y, sign: int = 1) -> list:
    return [[a + sign * b for a, b in zip(r, s)] for r, s in zip(x, y)]


def _over(m: "QiMatrix", den: int) -> tuple:
    """m's integer rows over den, a multiple of m.den."""
    f = den // m.den
    if f == 1:
        return m.re, m.im
    re = [[f * x for x in r] for r in m.re]
    return re, None if m.im is None else [[f * x for x in r] for r in m.im]


def _eliminate(re, im, ncols: int, reduced: bool = True) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns the pivot columns and the eliminated rows re, im, in new outer
    lists; the rows passed in are never changed.  Row r < len(pivots) has a
    positive real pivot p_r in column pivots[r], integer content 1 and (when
    reduced) zeros in every other pivot column, so row r / p_r is row r of
    the reduced row echelon form; the remaining rows are zero.  Without
    reduced only the rows below each pivot are cleared, which is enough for
    a rank.
    """
    re = list(re)
    if im is None:
        return _eliminate_real(re, ncols, reduced), re, None
    im = list(im)
    return _eliminate_gauss(re, im, ncols, reduced), re, im


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


def _bareiss(m: "QiMatrix", pivoting: bool):
    """Bareiss elimination of the integer rows of a square matrix m.

    Yields (pivot re, pivot im, sign) at each step: the k-th pivot is the
    k-th leading principal minor of the integer rows re + i*im with the rows
    permuted by the swaps so far, whose parity sign records.  Without
    pivoting the rows are never swapped.  Stops after the first zero pivot.
    """
    n = m.rows
    re = [list(r) for r in m.re]
    im = None if m.im is None else [list(r) for r in m.im]
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



@dataclass(frozen=True)
class QiMatrix:
    """Immutable matrix (re + i*im) / den in the canonical integer form."""

    rows: int
    cols: int
    den: int
    re: tuple
    im: Optional[tuple]

    @classmethod
    def _make(cls, rows: int, cols: int, den: int, re, im) -> "QiMatrix":
        """The canonical form of (re + i*im) / den, for a positive den."""
        if im is not None and not any(map(any, im)):
            im = None
        if den > 1:
            g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ()))
            if g > 1:
                den //= g
                re = [[x // g for x in r] for r in re]
                im = None if im is None else [[x // g for x in r] for r in im]
        return cls(rows, cols, den, tuple(map(tuple, re)),
                   None if im is None else tuple(map(tuple, im)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "QiMatrix":
        ncols = len(rows[0]) if rows else cols or 0
        if cols is not None and cols != ncols:
            raise DimensionMismatch("row length disagrees with declared column count")
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        parts = [[_parts(x) for x in r] for r in rows]
        den = lcm(*(y.denominator for r in parts for x in r for y in x))
        re = [[a.numerator * (den // a.denominator) for a, _ in r] for r in parts]
        im = [[b.numerator * (den // b.denominator) for _, b in r] for r in parts]
        return cls._make(len(rows), ncols, den, re, im)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "QiMatrix":
        if not columns:
            return cls.zeros(rows or 0, 0)
        nrows = len(columns[0])
        if rows is not None and rows != nrows:
            raise DimensionMismatch("column length disagrees with declared row count")
        return cls.from_rows([[c[i] for c in columns] for i in range(nrows)], cols=len(columns))

    @classmethod
    def identity(cls, n: int) -> "QiMatrix":
        return cls(n, n, 1, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), None)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QiMatrix":
        return cls(rows, cols, 1, ((0,) * cols,) * rows, None)

    @classmethod
    def diagonal(cls, diag: Sequence[Scalar]) -> "QiMatrix":
        n = len(diag)
        return cls.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def entry(self, i: int, j: int) -> GaussRational:
        return _quotient(self.re[i][j], 0 if self.im is None else self.im[i][j], self.den)

    def row_list(self, i: int) -> list:
        im = (0,) * self.cols if self.im is None else self.im[i]
        return [_quotient(x, y, self.den) for x, y in zip(self.re[i], im)]

    def to_rows(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def column(self, j: int) -> list:
        return [self.entry(i, j) for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    @property
    def entries(self) -> tuple:
        """Every entry, row by row."""
        return tuple(x for i in range(self.rows) for x in self.row_list(i))

    def transpose(self) -> "QiMatrix":
        return QiMatrix(self.cols, self.rows, self.den, tuple(_transpose(self.re, self.cols)),
                        None if self.im is None else tuple(_transpose(self.im, self.cols)))

    def conj(self) -> "QiMatrix":
        if self.im is None:
            return self
        return QiMatrix(self.rows, self.cols, self.den, self.re,
                        tuple(tuple(-x for x in r) for r in self.im))

    def conj_transpose(self) -> "QiMatrix":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def is_real(self) -> bool:
        return self.im is None

    def __add__(self, other: "QiMatrix") -> "QiMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        den = lcm(self.den, other.den)
        (ar, ai), (br, bi) = _over(self, den), _over(other, den)
        im = ai if bi is None else bi if ai is None else _plus(ai, bi)
        return QiMatrix._make(self.rows, self.cols, den, _plus(ar, br), im)

    def __sub__(self, other: "QiMatrix") -> "QiMatrix":
        return self + (-other)

    def __neg__(self) -> "QiMatrix":
        return QiMatrix(self.rows, self.cols, self.den, tuple(tuple(-x for x in r) for r in self.re),
                        None if self.im is None else tuple(tuple(-x for x in r) for r in self.im))

    def scale(self, c: Scalar) -> "QiMatrix":
        a, b = _parts(c)
        d = lcm(a.denominator, b.denominator)
        cr, ci = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        if self.im is None:
            re = [[cr * x for x in r] for r in self.re]
            im = [[ci * x for x in r] for r in self.re]
        else:
            re = [[cr * x - ci * y for x, y in zip(r, s)] for r, s in zip(self.re, self.im)]
            im = [[cr * y + ci * x for x, y in zip(r, s)] for r, s in zip(self.re, self.im)]
        return QiMatrix._make(self.rows, self.cols, self.den * d, re, im)

    def __matmul__(self, other: "QiMatrix") -> "QiMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ar, ai = self.re, self.im
        br = _transpose(other.re, other.cols)
        bi = None if other.im is None else _transpose(other.im, other.cols)
        re, im = _times(ar, br), None
        if ai is not None and bi is not None:
            re, im = _plus(re, _times(ai, bi), -1), _plus(_times(ar, bi), _times(ai, br))
        elif bi is not None:
            im = _times(ar, bi)
        elif ai is not None:
            im = _times(ai, br)
        return QiMatrix._make(self.rows, other.cols, self.den * other.den, re, im)

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
        return (self @ QiMatrix.from_columns([vector], rows=self.cols)).column(0)

    def hstack(self, other: "QiMatrix") -> "QiMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        den = lcm(self.den, other.den)
        (ar, ai), (br, bi) = _over(self, den), _over(other, den)
        im = None
        if ai is not None or bi is not None:
            im = [(*a, *b) for a, b in zip(ai or [(0,) * self.cols] * self.rows,
                                           bi or [(0,) * other.cols] * other.rows)]
        return QiMatrix._make(self.rows, self.cols + other.cols, den,
                              [(*a, *b) for a, b in zip(ar, br)], im)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QiMatrix":
        def pick(rows):
            return [[rows[i][j] for j in col_idx] for i in row_idx]
        return QiMatrix._make(len(row_idx), len(col_idx), self.den, pick(self.re),
                              None if self.im is None else pick(self.im))

    def det(self) -> GaussRational:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        pr, pi, sign = 1, 0, 1  # the empty matrix has determinant 1
        for pr, pi, sign in _bareiss(self, pivoting=True):
            pass  # the last pivot is the determinant of the integer rows
        return _quotient(sign * pr, sign * pi, self.den ** self.rows)

    def inverse(self) -> "QiMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        # [re + i*im | den * 1] reduces to [p_r * 1 | p_r * inverse] row by row
        unit = [[self.den if i == j else 0 for j in range(n)] for i in range(n)]
        aug_re = [(*r, *e) for r, e in zip(self.re, unit)]
        aug_im = None if self.im is None else [(*r, *(0,) * n) for r in self.im]
        pivots, re, im = _eliminate(aug_re, aug_im, 2 * n)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return _scaled_rows(n, [r[n:] for r in re], None if im is None else [r[n:] for r in im],
                            [re[r][r] for r in range(n)])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)) + "]"


def _scaled_rows(ncols: int, re: list, im: Optional[list], scales: list) -> QiMatrix:
    """The matrix whose row r is (re[r] + i*im[r]) / scales[r], for positive scales."""
    den = lcm(*scales)
    factors = [den // s for s in scales]

    def lift(rows):
        return [[f * x for x in r] for f, r in zip(factors, rows)]
    return QiMatrix._make(len(re), ncols, den, lift(re), None if im is None else lift(im))


def rank(m: QiMatrix) -> int:
    return len(_eliminate(m.re, m.im, m.cols, reduced=False)[0])


def kernel(m: QiMatrix) -> "Subspace":
    """Null space of m, as a subspace of the domain (dimension = m.cols)."""
    pivots, re, im = _eliminate(m.re, m.im, m.cols)
    pivot_set = set(pivots)
    scale = lcm(*(re[r][p] for r, p in enumerate(pivots)))
    factors = [scale // re[r][p] for r, p in enumerate(pivots)]

    def vectors(rows, free_value):
        # scale times the kernel vector of each free column f: 1 at f, and
        # minus entry f of reduced row r over its pivot at pivots[r]
        out = []
        for f in (j for j in range(m.cols) if j not in pivot_set):
            v = [0] * m.cols
            v[f] = free_value
            for r, p in enumerate(pivots):
                v[p] = -rows[r][f] * factors[r]
            out.append(v)
        return out
    vre = vectors(re, scale)
    if im is None:
        return Subspace.span(m.cols, vre)
    # span takes exact scalars, so Z[i] vectors go as GaussRationals
    gauss = QiMatrix._make(len(vre), m.cols, scale, vre, vectors(im, 0))
    return Subspace.span(m.cols, gauss.to_rows())


def image(m: QiMatrix) -> "Subspace":
    """Column space of m, as a subspace of the codomain."""
    return Subspace.from_matrix(m)


def solve_unique(a: QiMatrix, b: Sequence[Scalar]) -> list:
    """Solve a x = b where a has full column rank; raises if inconsistent."""
    if len(b) != a.rows:
        raise DimensionMismatch("right-hand side length disagrees")
    return solve_columns(a, QiMatrix.from_columns([b], rows=a.rows)).column(0)


def solve_columns(a: QiMatrix, b: QiMatrix) -> QiMatrix:
    """The X with a X = b, where a has full column rank, from one elimination
    of [a | b]; raises if some column of b is not in the image of a."""
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side length disagrees")
    n = a.cols
    aug = a.hstack(b)
    pivots, re, im = _eliminate(aug.re, aug.im, aug.cols)
    if pivots and pivots[-1] >= n:
        raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("solution is not unique")
    return _scaled_rows(b.cols, [r[n:] for r in re[:n]],
                        None if im is None else [r[n:] for r in im[:n]],
                        [re[r][r] for r in range(n)])


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
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatch("vector length disagrees with ambient dimension")
        return cls.from_matrix(QiMatrix.from_columns(vectors, rows=ambient_dim))

    @classmethod
    def from_matrix(cls, m: QiMatrix) -> "Subspace":
        """Canonical subspace spanned by the columns of m."""
        pivots, re, im = _eliminate(_transpose(m.re, m.cols),
                                    None if m.im is None else _transpose(m.im, m.cols), m.rows)
        k = len(pivots)
        # reduced row r over its pivot is basis vector r
        rows = _scaled_rows(m.rows, re[:k], None if im is None else im[:k],
                            [re[r][p] for r, p in enumerate(pivots)])
        return cls(m.rows, rows.transpose())

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
        ker = kernel(self.basis.hstack(-other.basis))
        return Subspace.from_matrix(self.basis @ ker.basis.submatrix(range(self.dim), range(ker.dim)))

    def conjugate(self) -> "Subspace":
        return Subspace.from_matrix(self.basis.conj())

    def apply(self, m: QiMatrix) -> "Subspace":
        """Image of this subspace under the linear map m."""
        if m.cols != self.ambient_dim:
            raise DimensionMismatch("map domain disagrees with ambient dimension")
        return Subspace.from_matrix(m @ self.basis)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")


def sum_all(ambient_dim: int, spaces: Iterable[Subspace]) -> Subspace:
    basis = QiMatrix.zeros(ambient_dim, 0)
    for s in spaces:
        if s.ambient_dim != ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        basis = basis.hstack(s.basis)
    return Subspace.from_matrix(basis)


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
    m = inner.basis.hstack(outer.basis)
    pivots = _eliminate(m.re, m.im, m.cols, reduced=False)[0]
    return [outer.basis.column(c - inner.dim) for c in pivots if c >= inner.dim]


def first_nonpositive_minor(h: QiMatrix) -> Optional[int]:
    """1-based index of the first non-positive leading principal minor.

    Returns None when every leading principal minor is a positive rational,
    which by the Sylvester criterion is equivalent to h being positive
    definite.  h must be Hermitian, so its leading principal minors are
    real.  They are read off as the pivots of Bareiss elimination without
    row swaps, on the integer rows den * h, which keeps every sign; a zero
    minor already refutes positive definiteness.
    """
    if h.rows != h.cols:
        raise DimensionMismatch("positivity of a non-square matrix")
    if h != h.conj_transpose():
        raise NotHermitian("matrix is not Hermitian")
    for k, (pr, pi, _) in enumerate(_bareiss(h, pivoting=False)):
        if pi:
            raise NotHermitian("elimination produced a non-real pivot")
        if pr <= 0:
            return k + 1
    return None


def is_positive_definite_hermitian(h: QiMatrix) -> bool:
    """Exact positive definiteness of a Hermitian Gaussian-rational matrix."""
    return first_nonpositive_minor(h) is None
