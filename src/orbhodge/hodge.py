"""Pure Hodge structures, polarizations and Lefschetz structure.

A weight-k structure on C^d is stored by its (p, q)-pieces (subspaces with
p + q = k); validity (direct sum, conjugation symmetry) is checked by
validate_hodge_structure, which returns a report of violations rather than
raising.  Polarizations are rational bilinear forms; positivity of the
associated Hermitian form is decided exactly through leading principal
minors.  Graded spaces carry degree-2 Lefschetz operators, hard Lefschetz
verdicts and primitive decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exactla import (
    DimensionMismatch,
    GaussRational,
    NotHermitian,
    QiMatrix,
    Subspace,
    first_nonpositive_minor,
    i_power,
    kernel,
    neg_one_power,
    rank,
    solve_unique,
    sum_all,
)
from .filtration import DecreasingFiltration
from .report import Report

Degree = Union[int, Fraction]


class InvalidHodgeStructure(ValueError):
    """An operation required a valid Hodge structure and did not get one."""


class SymmetrySignMismatch(ValueError):
    """The form's symmetry sign is incompatible with the weight."""


class GradingViolation(ValueError):
    """An operator does not respect the grading it was declared on."""


class HardLefschetzFailure(ValueError):
    """A Lefschetz power that must be an isomorphism is not."""


class Bigraded:
    """Subspaces H^{p,q} of one coordinate space, indexed by bidegree.

    The base of HodgeStructureData and Bigrading.  Pieces are given as a
    {(p, q): Subspace} dict or (p, q, Subspace) triples; each must live in
    the ambient space and each bidegree may appear once.  Zero pieces are
    dropped and the rest sorted by descending p, then ascending q.  Each
    subclass states its own rule in _index(p, q), which returns the stored
    index of a piece or raises when (p, q) is not allowed.
    """

    _duplicate_error = ValueError

    def _set_pieces(self, ambient_dim: int, pieces) -> None:
        items = []
        seen = set()
        if isinstance(pieces, dict):
            pieces = [(p, q, s) for (p, q), s in pieces.items()]
        for p, q, s in pieces:
            p, q = self._index(p, q)
            if s.ambient_dim != ambient_dim:
                raise DimensionMismatch(f"piece ({p},{q}) lives in the wrong ambient space")
            if (p, q) in seen:
                raise self._duplicate_error(f"duplicate piece ({p},{q})")
            seen.add((p, q))
            if s.dim > 0:
                items.append((p, q, s))
        items.sort(key=lambda t: (-t[0], t[1]))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pieces", tuple(items))

    def piece(self, p, q) -> Subspace:
        for pp, qq, s in self.pieces:
            if pp == p and qq == q:
                return s
        return Subspace.zero(self.ambient_dim)

    def total_piece_dim(self) -> int:
        return sum(s.dim for _, _, s in self.pieces)


@dataclass(frozen=True)
class HodgeStructureData(Bigraded):
    """Candidate weight-k decomposition: pieces H^{p,q} with p + q = k.

    The constructor enforces only shape constraints (bidegrees sum to the
    weight, pieces live in the ambient space); whether the pieces actually
    form a Hodge structure is the job of validate_hodge_structure.
    """

    ambient_dim: int
    weight: int
    pieces: tuple  # ((p, q, Subspace), ...) sorted by descending p

    _duplicate_error = InvalidHodgeStructure

    def __init__(self, ambient_dim: int, weight: int, pieces):
        object.__setattr__(self, "weight", weight)
        self._set_pieces(ambient_dim, pieces)

    def _index(self, p, q) -> tuple:
        if p + q != self.weight:
            raise InvalidHodgeStructure(f"piece ({p},{q}) has p+q != weight {self.weight}")
        return p, q


@dataclass(frozen=True)
class BilinearFormData:
    """A nondegenerate rational bilinear form with a fixed symmetry sign."""

    gram: QiMatrix
    symmetry_sign: int

    def __post_init__(self):
        if self.symmetry_sign not in (1, -1):
            raise ValueError("symmetry sign must be +1 or -1")
        if self.gram.rows != self.gram.cols:
            raise DimensionMismatch("gram matrix must be square")
        if not self.gram.is_real():
            raise ValueError("gram matrix must have rational entries")
        if self.gram.transpose() != self.gram.scale(self.symmetry_sign):
            raise ValueError("gram matrix does not have the declared symmetry")
        if self.gram.rows and self.gram.det().is_zero():
            raise ValueError("gram matrix is degenerate")

    @property
    def dim(self) -> int:
        return self.gram.rows

    def pair_matrices(self, a: QiMatrix, b: QiMatrix) -> QiMatrix:
        """Matrix of Q(a_i, b_j) over the columns of a and b."""
        return a.transpose() @ self.gram @ b


def pad_vectors(vectors, offset: int, size: int) -> list:
    """Each vector written from coordinate `offset` into a zero vector of
    length `size`."""
    out = []
    for v in vectors:
        vec = [GaussRational(0)] * size
        vec[offset:offset + len(v)] = v
        out.append(vec)
    return out


@dataclass(frozen=True)
class GradedSpace:
    """A coordinate space split into consecutive blocks, one per degree."""

    blocks: tuple  # ((degree, dim), ...), degrees strictly ascending

    def __init__(self, blocks):
        blocks = tuple((Fraction(d), int(n)) for d, n in blocks)
        for (d1, _), (d2, _) in zip(blocks, blocks[1:]):
            if d1 >= d2:
                raise ValueError("degrees must be strictly ascending")
        for _, n in blocks:
            if n < 0:
                raise ValueError("negative block dimension")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total_dim(self) -> int:
        return sum(n for _, n in self.blocks)

    def dim_at(self, degree: Degree) -> int:
        degree = Fraction(degree)
        for d, n in self.blocks:
            if d == degree:
                return n
        return 0

    def offset(self, degree: Degree) -> int:
        degree = Fraction(degree)
        off = 0
        for d, n in self.blocks:
            if d == degree:
                return off
            off += n
        raise KeyError(f"no block of degree {degree}")

    def block_range(self, degree: Degree) -> range:
        off = self.offset(degree)
        return range(off, off + self.dim_at(degree))

    def block_subspace(self, degree: Degree) -> Subspace:
        vecs = []
        for i in self.block_range(degree):
            v = [0] * self.total_dim
            v[i] = 1
            vecs.append(v)
        return Subspace.span(self.total_dim, vecs)


@dataclass(frozen=True)
class LefschetzOperator:
    """A degree-(+2) endomorphism of a graded space.

    The constructor verifies the block structure: the column of every
    degree-d coordinate may only be supported in the degree-(d+2) block
    (and must vanish when that block is absent).
    """

    matrix: QiMatrix
    graded: GradedSpace

    def __post_init__(self):
        n = self.graded.total_dim
        if self.matrix.rows != n or self.matrix.cols != n:
            raise DimensionMismatch("operator size disagrees with the graded space")
        for d, _ in self.graded.blocks:
            target = d + 2
            rows_ok = set(self.graded.block_range(target)) if self.graded.dim_at(target) else set()
            for j in self.graded.block_range(d):
                for i in range(n):
                    if i not in rows_ok and not self.matrix.entry(i, j).is_zero():
                        raise GradingViolation(
                            f"column {j} (degree {d}) hits coordinate {i} outside degree {target}")

    def block(self, degree: Degree, power: int = 1) -> QiMatrix:
        """Matrix of L^power from the degree block to the degree+2*power block."""
        src = list(self.graded.block_range(degree))
        target = Fraction(degree) + 2 * power
        m = self.matrix.power(power)
        if self.graded.dim_at(target) == 0:
            return QiMatrix.zeros(0, len(src))
        dst = list(self.graded.block_range(target))
        return m.submatrix(dst, src)


def validate_hodge_structure(h: HodgeStructureData) -> Report:
    """Check direct sum and conjugation symmetry; empty report means valid."""
    report = Report()
    total = sum_all(h.ambient_dim, [s for _, _, s in h.pieces])
    piece_dim_sum = h.total_piece_dim()
    if total.dim != piece_dim_sum:
        report.failed("pieces_independent",
                      {"sum_of_piece_dims": piece_dim_sum, "dim_of_sum": total.dim})
    if total.dim != h.ambient_dim:
        report.failed("pieces_span",
                      {"dim_of_sum": total.dim, "ambient_dim": h.ambient_dim})
    for p, q, s in h.pieces:
        if s.conjugate() != h.piece(q, p):
            report.failed("conjugation_symmetry", {"p": p, "q": q})
    return report


def filtration_from_pieces(h: Bigraded) -> DecreasingFiltration:
    """Hodge filtration F^a = sum of pieces with p >= a.  Assumes h valid.
    a runs over the integers from int(min p) to int(max p) + 1, so the
    fractional indices of a Bigrading are allowed."""
    if not h.pieces:
        return DecreasingFiltration.from_map(h.ambient_dim, {0: Subspace.zero(h.ambient_dim)})
    ps = [p for p, _, _ in h.pieces]
    lo, hi = int(min(ps)), int(max(ps))
    spaces = {}
    for a in range(lo, hi + 1):
        spaces[a] = sum_all(h.ambient_dim, [s for p, _, s in h.pieces if p >= a])
    spaces[hi + 1] = Subspace.zero(h.ambient_dim)
    return DecreasingFiltration.from_map(h.ambient_dim, spaces)


def pieces_from_filtration(f: DecreasingFiltration, k: int) -> HodgeStructureData:
    """Recover candidate pieces H^{p, k-p} = F^p  intersect  conj(F^{k-p})."""
    conj = f.conjugate()
    pieces = {}
    for p in range(k - f.hi, f.hi + 1):
        s = f.at(p).intersect(conj.at(k - p))
        if s.dim:
            pieces[(p, k - p)] = s
    return HodgeStructureData(f.ambient_dim, k, pieces)


def _weil_basis(h: HodgeStructureData) -> tuple:
    """(B, C B): the piece bases side by side, and each column times i^{p-q}.
    Needs at least one piece."""
    basis = None
    diag = []
    for p, q, s in h.pieces:
        basis = s.basis if basis is None else basis.hstack(s.basis)
        diag.extend([i_power(p - q)] * s.dim)
    return basis, basis @ QiMatrix.diagonal(diag)


def weil_operator(h: HodgeStructureData) -> QiMatrix:
    """The operator acting by i^{p-q} on each piece; requires h valid."""
    if not validate_hodge_structure(h).ok():
        raise InvalidHodgeStructure("Weil operator of an invalid Hodge structure")
    if h.ambient_dim == 0:
        return QiMatrix.identity(0)
    basis, weil_basis = _weil_basis(h)
    return weil_basis @ basis.inverse()


def check_polarization(h: HodgeStructureData, q: BilinearFormData) -> Report:
    """Verify that q polarizes h: orthogonality of pieces across complementary
    bidegrees and positive definiteness of v -> Q(Cv, conj(v)).

    Raises SymmetrySignMismatch when q's sign is not (-1)^weight; all
    mathematical failures are reported, not raised.
    """
    if q.symmetry_sign != neg_one_power(h.weight):
        raise SymmetrySignMismatch(
            f"weight {h.weight} needs symmetry sign {neg_one_power(h.weight)}")
    if q.dim != h.ambient_dim:
        raise DimensionMismatch("form and Hodge structure have different ambient spaces")
    report = Report()
    validity = validate_hodge_structure(h)
    report.merge(validity, prefix="hodge:")
    if not validity.ok():
        return report
    k = h.weight
    for p1, q1, s1 in h.pieces:
        for p2, q2, s2 in h.pieces:
            if p1 + p2 == k:
                continue
            if not q.pair_matrices(s1.basis, s2.basis).is_zero():
                report.failed("orthogonality", {"piece": [p1, q1], "against": [p2, q2]})
    if report.failures():
        return report
    report.passed("orthogonality")
    if h.ambient_dim == 0:
        report.passed("positivity")
        return report
    basis, weil_basis = _weil_basis(h)
    gram = weil_basis.transpose() @ q.gram @ basis.conj()
    try:
        bad = first_nonpositive_minor(gram)
    except NotHermitian:
        report.failed("positivity_hermitian")
        return report
    if bad is not None:
        report.failed("positivity", {"minor_index": bad})
    else:
        report.passed("positivity")
    return report


def hard_lefschetz_check(op: LefschetzOperator, n: Degree) -> Report:
    """Check L^p: H^{n-p} -> H^{n+p} is an isomorphism for every offset
    p > 0 at which either block is nonzero.

    Offsets are taken from the occupied degrees themselves, so blocks at
    fractional distance from the middle are compared too; L^p can only be
    applied for integer p, so a matched pair at fractional offset is
    reported as unreachable.
    """
    report = Report()
    n = Fraction(n)
    offsets = sorted({abs(d - n) for d, _ in op.graded.blocks if d != n})
    ok = True
    for p in offsets:
        lo_dim = op.graded.dim_at(n - p)
        hi_dim = op.graded.dim_at(n + p)
        witness_p = int(p) if p.denominator == 1 else str(p)
        if lo_dim != hi_dim:
            report.failed("lefschetz_power",
                          {"p": witness_p, "source_dim": lo_dim, "target_dim": hi_dim})
            ok = False
            continue
        if p.denominator != 1:
            report.failed("lefschetz_power",
                          {"p": witness_p, "reason": "no integer power reaches this offset"})
            ok = False
            continue
        block = op.block(n - p, power=int(p))
        r = rank(block)
        if r != lo_dim:
            report.failed("lefschetz_power", {"p": witness_p, "rank": r, "dim": lo_dim})
            ok = False
    if ok:
        report.passed("hard_lefschetz")
    return report


def primitive_subspace(op: LefschetzOperator, n: int, p: int) -> Subspace:
    """Primitive part of the degree-p block: ker L^{n-p+1} inside it.

    Returned as a subspace of the total graded space; zero for p outside
    the range 0..n.
    """
    total = op.graded.total_dim
    if p < 0 or p > n or op.graded.dim_at(p) == 0:
        return Subspace.zero(total)
    cols = list(op.graded.block_range(p))
    m = op.matrix.power(n - p + 1).submatrix(list(range(total)), cols)
    return Subspace.span(total, pad_vectors(kernel(m).basis.columns(), cols[0], total))


def lefschetz_decomposition(op: LefschetzOperator, n: int) -> dict:
    """Split each degree k <= n into shifted primitive summands.

    Returns {k: [(j, L^j(primitive at degree k-2j)), ...]} for integer
    degrees 0 <= k <= n, where each subspace is taken inside the total
    graded space.  Raises HardLefschetzFailure when the operator does not
    satisfy hard Lefschetz (the decomposition theorem needs it).
    """
    if not hard_lefschetz_check(op, n).ok():
        raise HardLefschetzFailure("hard Lefschetz fails; no primitive decomposition")
    total = op.graded.total_dim
    out = {}
    for k in range(0, n + 1):
        if op.graded.dim_at(k) == 0:
            out[k] = []
            continue
        summands = []
        for j in range(0, k // 2 + 1):
            prim = primitive_subspace(op, n, k - 2 * j)
            if prim.dim == 0:
                continue
            shifted = prim.apply(op.matrix.power(j))
            if shifted.dim != prim.dim:
                raise HardLefschetzFailure(
                    f"L^{j} is not injective on the primitive part of degree {k - 2 * j}")
            summands.append((j, shifted))
        span = sum_all(total, [s for _, s in summands])
        block = op.graded.block_subspace(k)
        if span != block or span.dim != sum(s.dim for _, s in summands):
            raise HardLefschetzFailure(f"primitive summands do not decompose degree {k}")
        out[k] = summands
    return out


def restrict_structure(h: HodgeStructureData, sub: Subspace) -> Optional[HodgeStructureData]:
    """Re-coordinatize the pieces of h cut down to sub, in sub's basis.

    Returns None when the piecewise intersections do not exhaust sub (the
    caller reports that as a failure).  sub must have a rational basis for
    conjugation to stay coordinatewise.
    """
    pieces = {}
    total = 0
    for p, q, s in h.pieces:
        cut = s.intersect(sub)
        if cut.dim == 0:
            continue
        coords = [solve_unique(sub.basis, v) for v in cut.vectors()]
        pieces[(p, q)] = Subspace.span(sub.dim, coords)
        total += cut.dim
    if total != sub.dim:
        return None
    return HodgeStructureData(sub.dim, h.weight, pieces)


def primitive_polarization(h: HodgeStructureData, prim: Subspace, gram: QiMatrix) -> tuple:
    """Whether the form with the given gram matrix on prim's basis, of sign
    (-1)^weight, polarizes h cut down to prim.

    Returns (ok, witness): the primitive dimension when it does, else the
    reason or the failed polarization checks.  A zero prim passes.
    """
    h_prim = restrict_structure(h, prim)
    if h_prim is None:
        return False, {"reason": "pieces do not restrict to the primitive part"}
    validity = validate_hodge_structure(h_prim)
    if not validity.ok():
        return False, {"reason": "induced structure invalid",
                       "violations": [it.check_id for it in validity.failures()]}
    try:
        form = BilinearFormData(gram, neg_one_power(h.weight))
    except ValueError as exc:
        return False, {"reason": str(exc)}
    sub = check_polarization(h_prim, form)
    if not sub.ok():
        return False, {"violations": [{"check": it.check_id, "witness": it.witness}
                                      for it in sub.failures()]}
    return True, {"primitive_dim": prim.dim}
