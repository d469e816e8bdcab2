"""Reference constructions and random generators the tests check library
results against.

Everything here deliberately takes a different route than the library: the
weight filtration below comes from an explicit Jordan chain basis instead of
the kernel-image sum, and the generators assemble objects from raw integer
data.  Keep it that way; a shared shortcut would make the comparisons
circular.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from orbhodge.exactla import (
    GaussRational,
    I,
    as_gauss,
    QiMatrix,
    Subspace,
    extend_basis,
    kernel,
    rank,
)
from orbhodge.filtration import IncreasingFiltration
from orbhodge.hodge import HodgeStructureData
from orbhodge.orbifold import OrbifoldData, SectorData
from orbhodge.toric import DegeneratePolytope, Facet, LatticePolytope


# ---------------------------------------------------------------------------
# weight filtration via an explicit Jordan basis


def jordan_chains(m: QiMatrix) -> list:
    """Split the domain of a nilpotent matrix into chains
    [v, m v, ..., m^(r-1) v], longest chains extracted first."""
    d = m.rows
    powers = [QiMatrix.identity(d)]
    while not powers[-1].is_zero():
        if len(powers) > d:
            raise ValueError("matrix is not nilpotent")
        powers.append(m @ powers[-1])
    s = len(powers) - 1
    kers = [kernel(p) for p in powers]
    chains = []
    carry = []
    for i in range(s, 0, -1):
        reached = kers[i - 1]
        for v in carry:
            reached = reached.sum(Subspace.span(d, [v]))
        starters = extend_basis(reached, kers[i])
        for v in starters:
            chain = [v]
            for _ in range(i - 1):
                chain.append(m.apply(chain[-1]))
            chains.append(chain)
        if i > 1:
            carry = [m.apply(v) for v in carry + starters]
    flat = [v for chain in chains for v in chain]
    if len(flat) != d or (d and rank(QiMatrix.from_columns(flat)) != d):
        raise AssertionError("chain extraction did not produce a basis")
    return chains


def oracle_weight_filtration(m: QiMatrix) -> IncreasingFiltration:
    """Weight filtration of a nilpotent matrix, centered at 0.  A chain of
    length r is an sl2 string: its j-th vector sits in weight r - 1 - 2j."""
    d = m.rows
    by_weight = {}
    for chain in jordan_chains(m):
        r = len(chain)
        for j, v in enumerate(chain):
            by_weight.setdefault(r - 1 - 2 * j, []).append(v)
    lows = min(by_weight)
    highs = max(by_weight)
    spaces = {lows - 1: Subspace.zero(d)}
    acc = []
    for l in range(lows, highs + 1):
        acc.extend(by_weight.get(l, []))
        spaces[l] = Subspace.span(d, list(acc))
    return IncreasingFiltration.from_map(d, spaces)


# ---------------------------------------------------------------------------
# linear algebra over Q(i) on plain Fractions
#
# A scalar is a (re, im) pair of Fractions, and every elimination step
# divides by its pivot at once: the textbook route, with neither the
# library's integer rows nor its GaussRational operators.


def _pair(x) -> tuple:
    x = as_gauss(x)
    return x.re, x.im


def _mul(a, b) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1]


def _div(a, b) -> tuple:
    n = b[0] * b[0] + b[1] * b[1]
    return _mul(a, (b[0] / n, -b[1] / n))


def _gauss(a) -> GaussRational:
    return GaussRational(a[0], a[1])


def frac_rref(rows, ncols: int) -> tuple:
    """Reduced row echelon form of pair rows (a new list) and its pivots."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if any(rows[k][c])), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        rows[r] = [_div(x, p) for x in rows[r]]
        for k in range(len(rows)):
            f = rows[k][c]
            if k != r and any(f):
                rows[k] = [_sub(x, _mul(f, y)) for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def _pair_rows(m: QiMatrix) -> list:
    return [[_pair(x) for x in row] for row in m.to_rows()]


def frac_rank(m: QiMatrix) -> int:
    return len(frac_rref(_pair_rows(m), m.cols)[1])


def frac_span_basis(ambient_dim: int, vectors) -> list:
    """Canonical basis of the span: the nonzero rows of the rref."""
    rows, pivots = frac_rref([[_pair(x) for x in v] for v in vectors], ambient_dim)
    return [[_gauss(x) for x in row] for row in rows[:len(pivots)]]


def frac_kernel_basis(m: QiMatrix) -> list:
    rows, pivots = frac_rref(_pair_rows(m), m.cols)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    vectors = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [zero] * m.cols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = _sub(zero, rows[r][f])
        vectors.append([_gauss(x) for x in v])
    return frac_span_basis(m.cols, vectors)


def frac_solve(a: QiMatrix, b) -> list:
    """The unique solution of a x = b, or the library's error message."""
    aug = [row + [_pair(y)] for row, y in zip(_pair_rows(a), b)]
    rows, pivots = frac_rref(aug, a.cols + 1)
    if a.cols in pivots:
        return "inconsistent system"
    if len(pivots) != a.cols:
        return "solution is not unique"
    return [_gauss(rows[r][a.cols]) for r in range(a.cols)]


def frac_inverse(m: QiMatrix):
    """The inverse as a list of rows, or None when m is singular."""
    n = m.rows
    unit = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    rows, pivots = frac_rref([row + e for row, e in zip(_pair_rows(m), unit)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [[_gauss(x) for x in row[n:]] for row in rows]


def frac_det(m: QiMatrix) -> GaussRational:
    """Determinant as the product of the pivots of a plain elimination."""
    rows = _pair_rows(m)
    det = (Fraction(1), Fraction(0))
    for c in range(m.rows):
        k = next((k for k in range(c, m.rows) if any(rows[k][c])), None)
        if k is None:
            return GaussRational(0)
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            det = _sub((Fraction(0), Fraction(0)), det)
        det = _mul(det, rows[c][c])
        for k in range(c + 1, m.rows):
            f = _div(rows[k][c], rows[c][c])
            rows[k] = [_sub(x, _mul(f, y)) for x, y in zip(rows[k], rows[c])]
    return _gauss(det)


def frac_first_nonpositive_minor(h: QiMatrix):
    """1-based index of the first leading principal minor <= 0, each minor
    a determinant of its own."""
    for k in range(1, h.rows + 1):
        minor = frac_det(h.submatrix(range(k), range(k)))
        if minor.im:
            raise AssertionError("a Hermitian matrix has a non-real minor")
        if minor.re <= 0:
            return k
    return None


def _gauss_rows(rows) -> list:
    return [[_gauss(x) for x in row] for row in rows]


def _product(x, y, ncols: int) -> list:
    """Product of the pair rows x and the pair rows y, which have ncols columns."""
    out = []
    for row in x:
        out_row = []
        for j in range(ncols):
            acc = (Fraction(0), Fraction(0))
            for t, v in enumerate(row):
                w = _mul(v, y[t][j])
                acc = (acc[0] + w[0], acc[1] + w[1])
            out_row.append(acc)
        out.append(out_row)
    return out


def frac_matmul(a: QiMatrix, b: QiMatrix) -> list:
    return _gauss_rows(_product(_pair_rows(a), _pair_rows(b), b.cols))


def frac_power(a: QiMatrix, k: int) -> list:
    n, rows = a.rows, _pair_rows(a)
    if k == 0:
        return _gauss_rows([[(Fraction(int(i == j)), Fraction(0)) for j in range(n)]
                            for i in range(n)])
    acc = rows
    for _ in range(k - 1):
        acc = _product(acc, rows, n)
    return _gauss_rows(acc)


def frac_add(a: QiMatrix, b: QiMatrix, sign: int = 1) -> list:
    """Rows of a + sign * b."""
    return [[_gauss((x[0] + sign * y[0], x[1] + sign * y[1])) for x, y in zip(r, s)]
            for r, s in zip(_pair_rows(a), _pair_rows(b))]


def frac_scale(a: QiMatrix, c) -> list:
    c = _pair(c)
    return [[_gauss(_mul(c, x)) for x in row] for row in _pair_rows(a)]


def frac_conj(a: QiMatrix) -> list:
    return [[_gauss((x[0], -x[1])) for x in row] for row in _pair_rows(a)]


def frac_transpose(a: QiMatrix) -> list:
    rows = _pair_rows(a)
    return [[_gauss(rows[i][j]) for i in range(a.rows)] for j in range(a.cols)]


def frac_hstack(a: QiMatrix, b: QiMatrix) -> list:
    return _gauss_rows(r + s for r, s in zip(_pair_rows(a), _pair_rows(b)))


def frac_submatrix(a: QiMatrix, row_idx, col_idx) -> list:
    rows = _pair_rows(a)
    return [[_gauss(rows[i][j]) for j in col_idx] for i in row_idx]


# ---------------------------------------------------------------------------
# random raw material (plain integers first, exact types at the edges)


def random_unimodular_int(rng, n, steps=6) -> list:
    """Random determinant +-1 integer matrix built from row shears and swaps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            m[a] = [-x for x in m[a]]
            continue
        c = rng.choice([-2, -1, 1, 2])
        m[a] = [x + c * y for x, y in zip(m[a], m[b])]
        if rng.random() < 0.3:
            m[a], m[b] = m[b], m[a]
    return m


def random_qi_rows(rng, rows, cols, gaussian) -> list:
    """Random Gaussian-rational rows (real ones when not gaussian) with the
    shapes elimination must survive: zero entries, rows and columns,
    duplicate and scaled rows, rank deficiency, and denominators up to 2^40."""

    def scalar():
        if rng.random() < 0.3:
            return Fraction(0)
        if rng.random() < 0.2:
            return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    def entry():
        im = scalar() if gaussian and rng.random() < 0.6 else 0
        return GaussRational(scalar(), im)

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    shape = rng.choice(["plain", "low_rank", "duplicates", "zero_lines"])
    if shape == "low_rank" and rows > 1 and cols:
        r = rng.randint(0, min(rows, cols) - 1)
        left = QiMatrix.from_rows([[entry() for _ in range(r)] for _ in range(rows)], cols=r)
        right = QiMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(r)], cols=cols)
        m = frac_matmul(left, right)
    elif shape == "duplicates" and rows > 1:
        for _ in range(rng.randint(1, rows)):
            c = entry() if rng.random() < 0.5 else GaussRational(1)
            m[rng.randrange(rows)] = [c * x for x in m[rng.randrange(rows)]]
    elif shape == "zero_lines":
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            m[i] = [GaussRational(0)] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in m:
                row[j] = GaussRational(0)
    return m


def int_matrix(rows) -> QiMatrix:
    return QiMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def random_nilpotent(rng, n) -> QiMatrix:
    """Random nilpotent rational matrix: sparse strictly lower triangular,
    conjugated by a random unimodular change of basis."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i and rng.random() < 0.6:
                row.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    low = QiMatrix.from_rows(rows)
    g = int_matrix(random_unimodular_int(rng, n))
    return g @ low @ g.inverse()


def random_real_invertible(rng, n) -> QiMatrix:
    g = random_unimodular_int(rng, n)
    scales = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
    rows = [[scales[i] * x for x in row] for i, row in enumerate(g)]
    return QiMatrix.from_rows(rows)


def random_hodge_structure(rng, max_dim=8) -> HodgeStructureData:
    """Random valid weight-k Hodge structure: conjugation-symmetric piece
    dimensions realized on a standard basis, pushed through a random real
    change of coordinates (real moves preserve the conjugation symmetry)."""
    k = rng.randint(0, 4)
    half = [p for p in range(k + 1) if 2 * p > k]
    dims = {}
    total = 0
    for p in half:
        h = rng.randint(0, 2)
        if h and total + 2 * h <= max_dim:
            dims[(p, k - p)] = h
            dims[(k - p, p)] = h
            total += 2 * h
    if k % 2 == 0:
        h = rng.randint(0, 2)
        if h and total + h <= max_dim:
            dims[(k // 2, k // 2)] = h
            total += h
    if total == 0:
        dims = {(k, 0): 1, (0, k): 1} if k % 2 else {(k // 2, k // 2): 1}
        total = 2 if k % 2 else 1
    pieces = {}
    offset = 0
    for (p, q), h in sorted(dims.items(), reverse=True):
        if p > q:
            vecs = []
            for t in range(h):
                e = [GaussRational(0, 0)] * total
                f = [GaussRational(0, 0)] * total
                e[offset + 2 * t] = GaussRational(1, 0)
                e[offset + 2 * t + 1] = I
                f[offset + 2 * t] = GaussRational(1, 0)
                f[offset + 2 * t + 1] = -I
                vecs.append((e, f))
            pieces[(p, q)] = Subspace.span(total, [v[0] for v in vecs])
            pieces[(q, p)] = Subspace.span(total, [v[1] for v in vecs])
            offset += 2 * h
        elif p == q:
            vecs = []
            for t in range(h):
                e = [GaussRational(0, 0)] * total
                e[offset + t] = GaussRational(1, 0)
                vecs.append(e)
            pieces[(p, q)] = Subspace.span(total, vecs)
            offset += h
    g = random_real_invertible(rng, total)
    moved = {pq: s.apply(g) for pq, s in pieces.items()}
    return HodgeStructureData(total, k, moved)


# ---------------------------------------------------------------------------
# reflexive polytope stock (literal vertex lists; transforms supply variety)

REFLEXIVE_STOCK = (
    ((1,), (-1,)),
    ((1, 1), (1, -1), (-1, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, -1)),
    ((2, -1), (-1, 2), (-1, -1)),
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((1, 0), (0, 1), (-2, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
     (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)),
)


def random_reflexive(rng) -> LatticePolytope:
    verts = rng.choice(REFLEXIVE_STOCK)
    n = len(verts[0])
    g = random_unimodular_int(rng, n)
    moved = [tuple(sum(g[i][j] * v[j] for j in range(n)) for i in range(n))
             for v in verts]
    return LatticePolytope(n, moved)


# ---------------------------------------------------------------------------
# brute-force polytope combinatorics: every n-subset of vertices is a facet
# candidate, and every lattice point of a face's bounding box is tested with
# Fraction dot products


def _frac_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _frac_real_rref(rows, ncols: int) -> tuple:
    """Reduced row echelon form of rational rows and its pivots."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for k in range(len(rows)):
            f = rows[k][c]
            if k != r and f:
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def _frac_affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return len(_frac_real_rref([[x - y for x, y in zip(q, base)] for q in points[1:]],
                               len(base))[1])


def frac_find_facets(dim: int, verts) -> tuple:
    """Facets of the hull of distinct, spanning rational points, each tight
    on every listed point it contains, by search over every dim-subset of
    the points."""
    found = {}
    for subset in itertools.combinations(range(len(verts)), dim):
        base = verts[subset[0]]
        rows, pivots = _frac_real_rref([[x - y for x, y in zip(verts[i], base)]
                                        for i in subset[1:]], dim)
        if len(pivots) != dim - 1:
            continue
        free = next(c for c in range(dim) if c not in pivots)
        vec = [Fraction(0)] * dim
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        scale = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = math.gcd(*ints)
        normal = tuple(x // g for x in ints)
        offset = _frac_dot(normal, base)
        values = [_frac_dot(normal, v) for v in verts]
        if any(x > offset for x in values):
            if any(x < offset for x in values):
                continue
            normal, offset, values = tuple(-x for x in normal), -offset, [-x for x in values]
        tight = tuple(i for i, x in enumerate(values) if x == offset)
        found[(normal, offset)] = Facet(normal, offset, tight)
    if not found:
        raise DegeneratePolytope("no facets found")
    return tuple(sorted(found.values(), key=lambda f: (f.normal, f.offset)))


def frac_polytope_facets(dim: int, vertices) -> tuple:
    """The facets LatticePolytope(dim, vertices) computes, or the same
    DegeneratePolytope message."""
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    if any(len(v) != dim for v in verts):
        raise DegeneratePolytope("vertex length disagrees with the dimension")
    if len(set(verts)) != len(verts):
        raise DegeneratePolytope("duplicate vertices")
    if _frac_affine_rank(verts) != dim:
        raise DegeneratePolytope("vertices do not span the full dimension")
    facets = frac_find_facets(dim, verts)
    for i, v in enumerate(verts):
        tight = [f.normal for f in facets if i in f.vertex_indices]
        if not tight or len(_frac_real_rref(tight, dim)[1]) != dim:
            raise DegeneratePolytope(f"listed point ({', '.join(map(str, v))}) is not a vertex")
    return facets


def frac_relative_interior_points(p: LatticePolytope, face) -> list:
    """Lattice points of the face's bounding box tight on its supporting
    facets and strictly inside every other facet."""
    pts = [p.vertices[i] for i in face.vertex_subset]
    box = [range(math.ceil(min(q[k] for q in pts)), math.floor(max(q[k] for q in pts)) + 1)
           for k in range(p.dim)]
    out = []
    for candidate in itertools.product(*box):
        if all(_frac_dot(f.normal, candidate) == f.offset if i in face.supporting_facets
               else _frac_dot(f.normal, candidate) < f.offset
               for i, f in enumerate(p.facets)):
            out.append(candidate)
    return sorted(out)


# ---------------------------------------------------------------------------
# sector skeletons: every sector carries the cohomology of a P^d model, so
# sector-level hard Lefschetz and Poincare duality hold by construction and
# the only variable is the age bookkeeping


def model_sector(sector_id, age, partner, d) -> SectorData:
    one = QiMatrix.from_rows([[1]])
    cohomology = {
        2 * j: HodgeStructureData(1, 2 * j, {(j, j): Subspace.full(1)})
        for j in range(d + 1)
    }
    pairing = {2 * j: one for j in range(d + 1)}
    actions = [{2 * j: one for j in range(d)}]
    return SectorData(sector_id, age, partner, d, cohomology, pairing, actions)


def random_sector_skeleton(rng) -> OrbifoldData:
    """Random orbifold sector data with P^d-model sectors.  Dimensions obey
    dim X_t = n - age(t) - age(partner(t)) by construction; roughly half the
    draws break the age symmetry age(t) = age(partner(t))."""
    break_symmetry = rng.random() < 0.5
    n = rng.choice([3, 4]) if break_symmetry else rng.choice([2, 3, 4])
    sectors = [model_sector("0", 0, "0", n)]
    broke = False
    for idx in range(rng.randint(1, 3)):
        kind = rng.random()
        if break_symmetry and (not broke or kind < 0.3):
            b = rng.randint(2, n - 1)
            a = rng.randint(1, min(b - 1, n - b))
            d = n - a - b
            sectors.append(model_sector(f"t{idx}", a, f"u{idx}", d))
            sectors.append(model_sector(f"u{idx}", b, f"t{idx}", d))
            broke = True
        elif kind < 0.6:
            a = rng.randint(1, n // 2)
            sectors.append(model_sector(f"s{idx}", a, f"s{idx}", n - 2 * a))
        else:
            a = rng.randint(1, n // 2)
            d = n - 2 * a
            sectors.append(model_sector(f"p{idx}", a, f"q{idx}", d))
            sectors.append(model_sector(f"q{idx}", a, f"p{idx}", d))
    return OrbifoldData(n, 1, sectors)
