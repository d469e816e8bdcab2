"""Mixed Hodge structures, weight filtrations of nilpotent operators,
polarized mixed Hodge structures and nilpotent orbits.

The weight filtration of a nilpotent N (centered at 0) is computed by the
closed formula W_l = sum_j N^j ker(N^{l+2j+1}); both characterizing
properties (N shifts W by -2, N^l induces gr_l ~ gr_{-l}) are checked on
the result, raising WeightFiltrationError.  Polarized mixed Hodge structure
checks itemize each defining condition and decide graded positivity
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Sequence

from .exactla import (
    DimensionMismatch,
    GaussRational,
    QiMatrix,
    Subspace,
    extend_basis,
    kernel,
    solve_columns,
    solve_unique,
    sum_all,
)
from .filtration import DecreasingFiltration, IncreasingFiltration
from .hodge import (
    BilinearFormData,
    Bigraded,
    check_polarization,
    filtration_from_pieces,
    pieces_from_filtration,
    primitive_polarization,
    validate_hodge_structure,
)
from .report import Report


class NotNilpotent(ValueError):
    """The operator is not nilpotent."""


class NotCommuting(ValueError):
    """Orbit operators must commute pairwise."""


class WeightFiltrationError(ValueError):
    """A computed weight filtration fails one of its characterizing properties."""


@dataclass(frozen=True)
class NilpotentOperator:
    """A nilpotent endomorphism, with its nilpotency index and the powers
    N^0, ..., N^index precomputed."""

    matrix: QiMatrix
    index: int
    powers: tuple = field(compare=False, repr=False)

    def __init__(self, matrix: QiMatrix):
        if matrix.rows != matrix.cols:
            raise DimensionMismatch("nilpotent operator must be square")
        powers = [QiMatrix.identity(matrix.rows)]
        while not powers[-1].is_zero():
            if len(powers) > matrix.rows + 1:
                raise NotNilpotent("matrix is not nilpotent")
            powers.append(powers[-1] @ matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "index", max(len(powers) - 1, 1))
        object.__setattr__(self, "powers", tuple(powers))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def power(self, j: int) -> QiMatrix:
        """N^j for j >= 0; the zero matrix from the index on."""
        if j < 0:
            raise ValueError("negative power")
        if j < len(self.powers):
            return self.powers[j]
        return QiMatrix.zeros(self.dim, self.dim)


@dataclass(frozen=True)
class Bigrading(Bigraded):
    """Candidate splitting I^{p,q} of a coordinate space; indices are
    stored as Fractions."""

    ambient_dim: int
    pieces: tuple  # ((p, q, Subspace), ...) sorted

    def __init__(self, ambient_dim: int, pieces):
        self._set_pieces(ambient_dim, pieces)

    def _index(self, p, q) -> tuple:
        return Fraction(p), Fraction(q)

    def is_direct_sum(self) -> bool:
        total = sum_all(self.ambient_dim, [s for _, _, s in self.pieces])
        return total.is_full() and total.dim == self.total_piece_dim()


def weight_filtration(n: NilpotentOperator) -> IncreasingFiltration:
    """Monodromy weight filtration of n centered at 0.

    W_l = sum over j >= 0 of N^j ker(N^{l+2j+1}), which on every Jordan
    block of size s puts the chain vector N^j v in weight s-1-2j.  The two
    characterizing properties are checked before returning; a failure
    raises WeightFiltrationError, also under python -O.
    """
    d = n.dim
    m = n.index
    powers = [n.power(j) for j in range(m + 1)]
    kernels = [Subspace.zero(d)]  # ker N^0
    for t in range(1, m + 1):
        kernels.append(kernel(powers[t]))

    def ker_at(t: int) -> Subspace:
        if t <= 0:
            return Subspace.zero(d)
        if t >= m:
            return Subspace.full(d)
        return kernels[t]

    spaces = {l: sum_all(d, [ker_at(l + 2 * j + 1).apply(powers[j]) for j in range(m + 1)])
              for l in range(-m + 1, m)}
    w = IncreasingFiltration.from_map(d, spaces)

    for l in range(-m, m + 1):
        if not w.at(l - 2).contains(w.at(l).apply(n.matrix)):
            raise WeightFiltrationError(f"weight filtration not shifted by N at l={l}")
    for l in range(1, m + 1):
        dim_hi = w.at(l).dim - w.at(l - 1).dim
        dim_lo = w.at(-l).dim - w.at(-l - 1).dim
        if dim_hi != dim_lo:
            raise WeightFiltrationError(f"graded dimensions differ at l={l}")
        image_l = w.at(l).apply(powers[l]).sum(w.at(-l - 1))
        if image_l != w.at(-l):
            raise WeightFiltrationError(f"N^{l} does not induce gr_{l} ~ gr_{-l}")
    return w


def real_form(s: Subspace) -> Subspace:
    """The same subspace, respanned by rational vectors.

    Requires s to be conjugation-stable; real and imaginary parts of the
    canonical basis then span s, and the echelon pass keeps the result
    canonical and rational.
    """
    vectors = []
    for v in s.vectors():
        vectors.append([GaussRational(x.re) for x in v])
        vectors.append([GaussRational(x.im) for x in v])
    r = Subspace.span(s.ambient_dim, vectors)
    if r != s:
        raise ValueError("subspace is not conjugation-stable")
    return r


class GradedQuotient:
    """Explicit model of W_l / W_{l-1} with a rational complement basis.

    Coordinates in the quotient are taken along the chosen complement, so
    conjugation acts coordinatewise and subspaces of the quotient can be
    fed back into the Hodge structure machinery.
    """

    def __init__(self, w: IncreasingFiltration, l: int):
        self.ambient_dim = w.ambient_dim
        inner = real_form(w.at(l - 1))
        outer = real_form(w.at(l))
        complement = extend_basis(inner, outer)
        self.dim = len(complement)
        self.lift_matrix = QiMatrix.from_columns(complement, rows=w.ambient_dim)
        self._solver = self.lift_matrix.hstack(inner.basis)

    def project(self, v: Sequence) -> list:
        """Quotient coordinates of an ambient vector of W_l."""
        x = solve_unique(self._solver, list(v))
        return x[: self.dim]

    def project_subspace(self, s: Subspace) -> Subspace:
        """Quotient coordinates of a subspace of W_l, every basis vector
        solved in one elimination."""
        x = solve_columns(self._solver, s.basis)
        return Subspace.from_matrix(x.submatrix(range(self.dim), range(x.cols)))


def induced_filtration(f: DecreasingFiltration, w: IncreasingFiltration, l: int,
                       gr: GradedQuotient) -> DecreasingFiltration:
    """The filtration induced by f on W_l / W_{l-1}, modelled by gr."""
    spaces = {}
    for a in range(f.lo, f.hi + 2):
        t = f.at(a).intersect(w.at(l))
        spaces[a] = gr.project_subspace(t)
    return DecreasingFiltration.from_map(gr.dim, spaces)


def graded_structure(w: IncreasingFiltration, f: DecreasingFiltration, l: int) -> tuple:
    """(gr, h): the quotient W_l / W_{l-1} and the candidate weight-l pieces
    that f induces on it, in gr's coordinates."""
    gr = GradedQuotient(w, l)
    return gr, pieces_from_filtration(induced_filtration(f, w, l, gr), l)


def mhs_from_bigrading(i: Bigrading):
    """Weight and Hodge filtrations of a bigrading, with a validity report.

    W_l is the sum of pieces with p+q <= l and F^a the sum of pieces with
    p >= a.  The report checks the conjugation congruence
    conj(I^{q,p}) == I^{p,q} modulo the pieces with (a < p and b < q), and
    that F induces a genuine weight-l Hodge structure on every graded
    quotient.  Raises when the pieces do not form a direct sum.

    Returns (W, F, report).
    """
    if not i.is_direct_sum():
        raise ValueError("bigrading pieces do not split the ambient space")
    d = i.ambient_dim
    levels = sorted({p + q for p, q, _ in i.pieces})
    w_spaces = {}
    for l in range(int(min(levels)), int(max(levels)) + 1):
        w_spaces[l] = sum_all(d, [s for p, q, s in i.pieces if p + q <= l])
    w = IncreasingFiltration.from_map(d, w_spaces)
    f = filtration_from_pieces(i)

    report = Report()
    for p, q, s in i.pieces:
        correction = sum_all(d, [t for a, b, t in i.pieces if a < p and b < q])
        left = s.sum(correction)
        right = i.piece(q, p).conjugate().sum(correction)
        if left != right:
            report.failed("conjugation_congruence", {"p": str(p), "q": str(q)})
    for l in range(int(min(levels)), int(max(levels)) + 1):
        if w.at(l).dim == w.at(l - 1).dim:
            continue
        if w.at(l).conjugate() != w.at(l) or w.at(l - 1).conjugate() != w.at(l - 1):
            report.failed("graded_weight_structure", {"l": l, "reason": "weight space not real"})
            continue
        sub = validate_hodge_structure(graded_structure(w, f, l)[1])
        if sub.ok():
            report.passed("graded_weight_structure", {"l": l})
        else:
            report.failed("graded_weight_structure",
                          {"l": l, "violations": [it.check_id for it in sub.failures()]})
    return w, f, report


def is_split_over_R(i: Bigrading) -> bool:
    """True when conj(I^{p,q}) equals I^{q,p} on the nose."""
    return all(s.conjugate() == i.piece(q, p) for p, q, s in i.pieces)


def check_morphism_bidegree(t: QiMatrix, i: Bigrading, a: int, b: int) -> Report:
    """Check T(I^{p,q}) <= I^{p+a,q+b} for every piece."""
    report = Report()
    if t.cols != i.ambient_dim or t.rows != i.ambient_dim:
        raise DimensionMismatch("operator size disagrees with the bigrading")
    bad = []
    for p, q, s in i.pieces:
        target = i.piece(p + a, q + b)
        if not target.contains(s.apply(t)):
            bad.append([str(p), str(q)])
    if bad:
        report.failed("morphism_bidegree", {"violating_pieces": bad, "bidegree": [a, b]})
    else:
        report.passed("morphism_bidegree", {"bidegree": [a, b]})
    return report


def check_pmhs(w: IncreasingFiltration, f: DecreasingFiltration, q: BilinearFormData,
               n: NilpotentOperator, k: int) -> Report:
    """Verify that (W, F, Q, N) is a polarized mixed Hodge structure of
    weight k: N^{k+1} = 0; W is the weight filtration of N shifted by k;
    F^a and F^{k-a+1} are Q-orthogonal; and for every l >= 0 the primitive
    part of gr_{k+l} carries a weight-(k+l) Hodge structure polarized by
    Q(. , N^l .).  Also checks that N is real and infinitesimally
    Q-antisymmetric, which the definition presupposes.
    """
    d = w.ambient_dim
    if f.ambient_dim != d or q.dim != d or n.dim != d:
        raise DimensionMismatch("pmhs data live in different spaces")
    report = Report()

    if n.matrix.is_real():
        report.passed("n_real")
    else:
        report.failed("n_real")
    skew = n.matrix.transpose() @ q.gram + q.gram @ n.matrix
    if skew.is_zero():
        report.passed("n_infinitesimal_isometry")
    else:
        report.failed("n_infinitesimal_isometry")

    # below weight -1 the power is negative; N^0 = I is nonzero already
    if k >= -1 and n.power(k + 1).is_zero():
        report.passed("n_power_vanishes", {"power": k + 1})
    else:
        report.failed("n_power_vanishes", {"power": k + 1})

    expected = weight_filtration(n).shift(-k)
    if w == expected:
        report.passed("weight_filtration_matches")
    else:
        mismatch = [l for l in range(min(w.lo, expected.lo), max(w.hi, expected.hi) + 1)
                    if w.at(l) != expected.at(l)]
        report.failed("weight_filtration_matches", {"differs_at": mismatch})

    bad_isotropy = []
    for a in range(min(f.lo, k + 1 - f.hi), max(f.hi, k + 1 - f.lo) + 1):
        left = f.at(a)
        right = f.at(k - a + 1)
        if left.dim and right.dim and not q.pair_matrices(left.basis, right.basis).is_zero():
            bad_isotropy.append(a)
    if bad_isotropy:
        report.failed("hodge_isotropy", {"failing_indices": bad_isotropy})
    else:
        report.passed("hodge_isotropy")

    if not report.ok():
        return report

    max_l = w.hi - k
    for l in range(0, max_l + 1):
        if w.at(k + l).dim == w.at(k + l - 1).dim:
            continue
        gr, h_gr = graded_structure(w, f, k + l)
        if w.at(k - l - 2).dim == w.at(k - l - 3).dim:
            prim = Subspace.full(gr.dim)
        else:
            low = GradedQuotient(w, k - l - 2)
            image = n.power(l + 1) @ gr.lift_matrix
            prim = kernel(QiMatrix.from_columns([low.project(v) for v in image.columns()],
                                                rows=low.dim))
        lifted = gr.lift_matrix @ prim.basis
        gram = lifted.transpose() @ q.gram @ (n.power(l) @ lifted)
        ok, witness = primitive_polarization(h_gr, prim, gram)
        (report.passed if ok else report.failed)("graded_polarization", {"l": l, **witness})
    return report


@dataclass(frozen=True)
class OrbitPoint:
    """A point z = (z_1, ..., z_r) paired with commuting nilpotent operators."""

    coefficients: tuple
    operators: tuple

    def __init__(self, coefficients, operators):
        from .exactla import as_gauss
        coefficients = tuple(as_gauss(z) for z in coefficients)
        operators = tuple(operators)
        if len(coefficients) != len(operators):
            raise DimensionMismatch("one coefficient per operator required")
        if not operators:
            raise ValueError("at least one operator required")
        d = operators[0].dim
        for op in operators:
            if op.dim != d:
                raise DimensionMismatch("operators act on different spaces")
        for a in range(len(operators)):
            for b in range(a + 1, len(operators)):
                ma, mb = operators[a].matrix, operators[b].matrix
                if ma @ mb != mb @ ma:
                    raise NotCommuting(f"operators {a} and {b} do not commute")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "operators", operators)

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    def total(self) -> QiMatrix:
        acc = QiMatrix.zeros(self.dim, self.dim)
        for z, op in zip(self.coefficients, self.operators):
            acc = acc + op.matrix.scale(z)
        return acc

    def in_upper_cone(self) -> bool:
        return all(z.im > 0 for z in self.coefficients)


def nilpotent_exp(m: QiMatrix) -> QiMatrix:
    """exp of a nilpotent matrix; the series terminates, so this is exact."""
    acc = QiMatrix.identity(m.rows)
    term = QiMatrix.identity(m.rows)
    for t in range(1, m.rows + 1):
        term = term @ m
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction(1, factorial(t)))
    else:
        if not (term @ m).is_zero():
            raise NotNilpotent("matrix is not nilpotent")
    return acc


def evaluate_orbit(f: DecreasingFiltration, pt: OrbitPoint) -> DecreasingFiltration:
    """The translated filtration exp(sum z_j N_j) . F."""
    if pt.dim != f.ambient_dim:
        raise DimensionMismatch("orbit operators act on a different space")
    e = nilpotent_exp(pt.total())
    spaces = {p: f.at(p).apply(e) for p in range(f.lo, f.hi + 1)}
    return DecreasingFiltration.from_map(f.ambient_dim, spaces)


def check_orbit_polarized_at(f: DecreasingFiltration, pt: OrbitPoint, k: int,
                             q: BilinearFormData) -> Report:
    """Translate F by the orbit point and check the result is a weight-k
    Hodge structure polarized by q, which must have sign (-1)^k.  Sample
    points outside the upper cone (some Im z_j <= 0) are allowed but flagged
    with a warning."""
    report = Report()
    if not pt.in_upper_cone():
        report.warned("sample_in_upper_cone",
                      {"coefficients": [str(z) for z in pt.coefficients]})
    report.merge(check_polarization(pieces_from_filtration(evaluate_orbit(f, pt), k), q))
    return report
