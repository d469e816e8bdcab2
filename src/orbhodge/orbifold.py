"""Orbifold cohomology assembled from twisted sectors.

Input data is a list of sectors, each carrying the cohomology of its
underlying space (per-degree Hodge structures), an intersection pairing and
wedge actions of the ambient Kaehler classes.  Sector classes are placed at
orbifold degree j + 2*age; degree shifts by rational ages are supported so
non-integral (non-SL) data can be represented and rejected with a clear
diagnostic.  On top of the assembled graded space this module builds the
total Lefschetz operator and polarization form and verifies: hard Lefschetz,
per-degree polarized Hodge structures on the primitive parts, a polarized
mixed Hodge structure of weight n on the total space, and positivity of the
associated nilpotent orbit over the Kaehler cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactla import (
    DimensionMismatch,
    GaussRational,
    QiMatrix,
    Subspace,
    as_gauss,
    kernel,
    neg_one_power,
)
from .hodge import (
    BilinearFormData,
    GradedSpace,
    HodgeStructureData,
    LefschetzOperator,
    hard_lefschetz_check,
    pad_vectors,
    primitive_polarization,
    validate_hodge_structure,
)
from .mhs import (
    Bigrading,
    NilpotentOperator,
    OrbitPoint,
    check_orbit_polarized_at,
    check_pmhs,
    is_split_over_R,
    mhs_from_bigrading,
    weight_filtration,
)
from .report import Report


class NotSL(ValueError):
    """Non-integral ages where integral ones are required."""


@dataclass(frozen=True)
class GroupElementAction:
    """A finite-order linear action with eigenvalues exp(2*pi*i*m_j/order)."""

    order: int
    exponents: tuple

    def __init__(self, order: int, exponents):
        if order < 1:
            raise ValueError("order must be positive")
        exponents = tuple(int(m) for m in exponents)
        for m in exponents:
            if not 0 <= m < order:
                raise ValueError("exponents must satisfy 0 <= m < order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponents", exponents)


def age(g: GroupElementAction) -> Fraction:
    """Sum of the normalized eigenvalue exponents m_j / order."""
    return sum((Fraction(m, g.order) for m in g.exponents), Fraction(0))


def is_sl(g: GroupElementAction) -> bool:
    """True when the action has determinant one (age is an integer)."""
    return sum(g.exponents) % g.order == 0


@dataclass(frozen=True)
class SectorData:
    """Cohomology of one twisted sector.

    cohomology maps each degree j to a weight-j Hodge structure on the
    sector's H^j; pairing[j] is the matrix of integration of wedge products
    between degrees j and 2*dim - j; kaehler_actions holds, for each ambient
    Kaehler basis class, the degree-(+2) wedge action given blockwise.
    """

    id: str
    age: Fraction
    partner: str
    dim: int
    cohomology: tuple  # ((j, HodgeStructureData), ...) ascending j
    pairing: tuple  # ((j, QiMatrix), ...) for every j with b_j > 0
    kaehler_actions: tuple  # per class: ((j, QiMatrix), ...)

    def __init__(self, id, age, partner, dim, cohomology, pairing, kaehler_actions):
        age = Fraction(age)
        dim = int(dim)
        if dim < 0 or age < 0:
            raise ValueError("sector dim and age must be nonnegative")
        if isinstance(cohomology, dict):
            cohomology = sorted(cohomology.items())
        cohomology = tuple((int(j), h) for j, h in sorted(cohomology))
        for j, h in cohomology:
            if not 0 <= j <= 2 * dim:
                raise ValueError(f"sector {id}: degree {j} outside 0..{2 * dim}")
            if h.weight != j:
                raise ValueError(f"sector {id}: H^{j} has weight {h.weight}")
        object.__setattr__(self, "cohomology", cohomology)

        if isinstance(pairing, dict):
            pairing = sorted(pairing.items())
        given = {int(j): m for j, m in pairing}
        full_pairing = {}
        for j, _h in cohomology:
            if self.betti(j) == 0:
                continue
            dual = 2 * dim - j
            if j in given:
                m = given[j]
            elif dual in given:
                m = given[dual].transpose().scale(neg_one_power(dual * j))
            else:
                raise ValueError(f"sector {id}: no pairing for degree {j}")
            if m.rows != self.betti(j) or m.cols != self.betti(dual):
                raise DimensionMismatch(f"sector {id}: pairing shape at degree {j}")
            if not m.is_real():
                raise ValueError(f"sector {id}: pairing must be rational")
            if m.rows != m.cols or m.det().is_zero():
                raise ValueError(f"sector {id}: degenerate pairing at degree {j}")
            full_pairing[j] = m
        for j, m in full_pairing.items():
            dual = 2 * dim - j
            if full_pairing.get(dual) != m.transpose().scale(neg_one_power(dual * j)):
                raise ValueError(f"sector {id}: pairing not graded symmetric at degree {j}")

        actions = []
        for action in kaehler_actions:
            if isinstance(action, dict):
                action = sorted(action.items())
            amap = {int(j): m for j, m in action}
            norm = {}
            for j, _h in cohomology:
                b_src, b_dst = self.betti(j), self.betti(j + 2)
                m = amap.get(j, QiMatrix.zeros(b_dst, b_src))
                if m.rows != b_dst or m.cols != b_src:
                    raise DimensionMismatch(f"sector {id}: action shape at degree {j}")
                if not m.is_real():
                    raise ValueError(f"sector {id}: Kaehler action must be rational")
                norm[j] = m
            actions.append(tuple(sorted(norm.items())))

        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "age", age)
        object.__setattr__(self, "partner", str(partner))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pairing", tuple(sorted(full_pairing.items())))
        object.__setattr__(self, "kaehler_actions", tuple(actions))
        self._check_action_bidegrees()

    def _check_action_bidegrees(self):
        for c, action in enumerate(self.kaehler_actions):
            amap = dict(action)
            for j, h in self.cohomology:
                m = amap[j]
                if m.rows == 0:
                    continue
                target = self.structure(j + 2)
                for p, q, s in h.pieces:
                    image = s.apply(m)
                    if not target.piece(p + 1, q + 1).contains(image):
                        raise ValueError(
                            f"sector {self.id}: class {c} maps ({p},{q}) outside ({p + 1},{q + 1})")

    def betti(self, j: int) -> int:
        for jj, h in self.cohomology:
            if jj == j:
                return h.ambient_dim
        return 0

    def structure(self, j: int) -> HodgeStructureData:
        for jj, h in self.cohomology:
            if jj == j:
                return h
        return HodgeStructureData(0, j, {})

    def pairing_at(self, j: int) -> QiMatrix:
        for jj, m in self.pairing:
            if jj == j:
                return m
        return QiMatrix.zeros(self.betti(j), self.betti(2 * self.dim - j))

    def action_at(self, c: int, j: int) -> QiMatrix:
        return dict(self.kaehler_actions[c])[j]


@dataclass(frozen=True)
class OrbifoldData:
    """A complex n-fold orbifold presented by its sectors."""

    n: int
    kaehler_basis_size: int
    sectors: tuple

    def __init__(self, n, kaehler_basis_size, sectors):
        n = int(n)
        r = int(kaehler_basis_size)
        sectors = tuple(sectors)
        if n < 0 or r < 1:
            raise ValueError("need n >= 0 and at least one Kaehler class")
        ids = [s.id for s in sectors]
        if len(set(ids)) != len(ids):
            raise ValueError("sector ids must be unique")
        by_id = {s.id: s for s in sectors}
        for s in sectors:
            if s.partner not in by_id:
                raise ValueError(f"sector {s.id}: unknown partner {s.partner}")
            if by_id[s.partner].partner != s.id:
                raise ValueError(f"partner map is not an involution at {s.id}")
            if len(s.kaehler_actions) != r:
                raise ValueError(f"sector {s.id}: expected {r} Kaehler actions")
        untwisted = [s for s in sectors if s.age == 0]
        if len(untwisted) != 1:
            raise ValueError("exactly one age-0 (non-twisted) sector required")
        if untwisted[0].partner != untwisted[0].id:
            raise ValueError("the non-twisted sector must be self-paired")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kaehler_basis_size", r)
        object.__setattr__(self, "sectors", sectors)

    def sector(self, sector_id: str) -> SectorData:
        for s in self.sectors:
            if s.id == sector_id:
                return s
        raise KeyError(sector_id)

    def is_sl(self) -> bool:
        return all(s.age.denominator == 1 for s in self.sectors)


def validate_dims(o: OrbifoldData) -> Report:
    """Check dim X_t = n - age(t) - age(partner(t)) for every sector."""
    report = Report()
    ok = True
    for s in o.sectors:
        expected = o.n - s.age - o.sector(s.partner).age
        if s.dim != expected:
            ok = False
            report.failed("sector_dimension",
                          {"sector": s.id, "dim": s.dim, "expected": str(expected)})
    if ok:
        report.passed("sector_dimensions")
    return report


def hlc_check(o: OrbifoldData) -> Report:
    """Hard Lefschetz condition: age(t) = age(partner(t)) for every sector."""
    report = Report()
    bad = [{"sector": s.id, "age": str(s.age), "partner_age": str(o.sector(s.partner).age)}
           for s in o.sectors if s.age != o.sector(s.partner).age]
    if bad:
        report.failed("hard_lefschetz_condition", {"violations": bad})
    else:
        report.passed("hard_lefschetz_condition")
    return report


@dataclass(frozen=True)
class OrbifoldAssembly:
    """Coordinates for the total orbifold cohomology.

    Placements list (sector index, sector degree, global offset, dim) with
    degrees ascending and, within one orbifold degree, sectors in input
    order; offsets maps (sector index, sector degree) to the global offset.
    The orbifold degree of sector degree j is j + 2*age.
    """

    orbifold: OrbifoldData
    graded: GradedSpace
    placements: tuple
    offsets: dict = field(compare=False, repr=False)

    @property
    def total_dim(self) -> int:
        return self.graded.total_dim

    def orbifold_degree(self, sector_index: int, j: int) -> Fraction:
        return j + 2 * self.orbifold.sectors[sector_index].age

    def window_pieces(self, placements, start: int, size: int) -> dict:
        """{(p + age, q + age): span} of the pieces of the given placements,
        as vectors of the size-`size` window from global coordinate `start`."""
        collected = {}
        for t, j, off, _dim in placements:
            sector = self.orbifold.sectors[t]
            for p, q, s in sector.structure(j).pieces:
                collected.setdefault((p + sector.age, q + sector.age), []).extend(
                    pad_vectors(s.vectors(), off - start, size))
        return {key: Subspace.span(size, vecs) for key, vecs in collected.items()}

    def _block_matrix(self, blocks) -> QiMatrix:
        """The n x n matrix summing z * m placed at (row, col), over the
        (row, col, m, z) blocks."""
        n = self.total_dim
        rows = [[GaussRational(0)] * n for _ in range(n)]
        for dst, src, m, z in blocks:
            for a in range(m.rows):
                for b in range(m.cols):
                    x = m.entry(a, b)
                    if not x.is_zero():
                        rows[dst + a][src + b] = rows[dst + a][src + b] + z * x
        return QiMatrix.from_rows(rows, cols=n)

    def degree_structure(self, k: int) -> HodgeStructureData:
        """Weight-k Hodge structure data on the degree-k block, in block
        coordinates.  Integral ages required."""
        if not self.orbifold.is_sl():
            raise NotSL("degree structures need integral ages")
        block_dim = self.graded.dim_at(k)
        if block_dim == 0:
            return HodgeStructureData(0, k, {})
        block = [(t, j, off, dim) for t, j, off, dim in self.placements
                 if self.orbifold_degree(t, j) == k]
        pieces = self.window_pieces(block, self.graded.offset(k), block_dim)
        return HodgeStructureData(block_dim, k,
                                  {(int(p), int(q)): s for (p, q), s in pieces.items()})

    def lefschetz_matrix(self, coeffs: Sequence) -> QiMatrix:
        coeffs = [as_gauss(c) for c in coeffs]
        if len(coeffs) != self.orbifold.kaehler_basis_size:
            raise DimensionMismatch("one coefficient per Kaehler basis class required")
        blocks = []
        for t, j, off, _dim in self.placements:
            dst = self.offsets.get((t, j + 2))
            if dst is None:
                continue
            sector = self.orbifold.sectors[t]
            blocks.extend((dst, off, sector.action_at(c, j), z)
                          for c, z in enumerate(coeffs) if not z.is_zero())
        return self._block_matrix(blocks)

    def block_pairing_sign(self, sector_index: int, j: int) -> int:
        k = self.orbifold_degree(sector_index, j)
        if k.denominator != 1:
            raise NotSL("pairing signs need integral orbifold degrees")
        k = int(k)
        return neg_one_power(k * (k - 1) // 2 + int(self.orbifold.sectors[sector_index].age))

    def total_form(self) -> BilinearFormData:
        """The direct sum over sectors of signed integration pairings.

        Q(a, b) = sign * pairing(a, b) for a in sector degree j and b in
        sector degree 2*dim - j of the same sector, the sign being
        (-1)^(d(d-1)/2 + age) for the orbifold degree d of a; blocks
        between different sectors or non-complementary degrees vanish.  The
        result is (-1)^n-symmetric.  Sector degrees j and 2*dim - j sit in
        complementary orbifold degrees k and 2n - k exactly when the sector
        has the age of its partner, so the hard Lefschetz condition is
        required.
        """
        if not self.orbifold.is_sl():
            raise NotSL("total form needs integral ages")
        if not hlc_check(self.orbifold).ok():
            raise ValueError("pairing blocks do not respect complementary degrees "
                             "unless every sector has the age of its partner")
        blocks = []
        for t, j, off, _dim in self.placements:
            sector = self.orbifold.sectors[t]
            dual_off = self.offsets.get((t, 2 * sector.dim - j))
            if dual_off is not None:
                blocks.append((off, dual_off, sector.pairing_at(j),
                               GaussRational(self.block_pairing_sign(t, j))))
        return BilinearFormData(self._block_matrix(blocks), neg_one_power(self.orbifold.n))


def assemble_orbifold_cohomology(o: OrbifoldData) -> OrbifoldAssembly:
    """Lay out all sector cohomology by ascending orbifold degree."""
    entries = []
    for t, sector in enumerate(o.sectors):
        for j, h in sector.cohomology:
            if h.ambient_dim:
                entries.append((j + 2 * sector.age, t, j, h.ambient_dim))
    entries.sort(key=lambda e: (e[0], e[1]))
    placements = []
    offsets = {}
    offset = 0
    block_dims = {}
    for degree, t, j, dim in entries:
        placements.append((t, j, offset, dim))
        offsets[(t, j)] = offset
        block_dims[degree] = block_dims.get(degree, 0) + dim
        offset += dim
    graded = GradedSpace(sorted(block_dims.items()))
    return OrbifoldAssembly(o, graded, tuple(placements), offsets)


def orbifold_hard_lefschetz(o: OrbifoldData, coeffs: Sequence) -> Report:
    """Hard Lefschetz for the total wedge action of sum(coeffs[c] * Kaehler
    class c), around middle degree n."""
    asm = assemble_orbifold_cohomology(o)
    op = LefschetzOperator(asm.lefschetz_matrix(coeffs), asm.graded)
    return hard_lefschetz_check(op, o.n)


def tate_twist(h: HodgeStructureData, s: int) -> HodgeStructureData:
    """Reindex pieces (p,q) -> (p+s, q+s); the weight moves by 2s."""
    return HodgeStructureData(h.ambient_dim, h.weight + 2 * s,
                              {(p + s, q + s): sub for p, q, sub in h.pieces})


def _gates(o: OrbifoldData, report: Report) -> Optional[OrbifoldAssembly]:
    """Common preconditions: integral ages, sector dimensions, HLC.  Returns
    the assembly when all hold, None when one fails."""
    if not o.is_sl():
        report.failed("sl_sectors",
                      {"non_integral_ages": [
                          {"sector": s.id, "age": str(s.age)}
                          for s in o.sectors if s.age.denominator != 1]})
        return None
    dims = validate_dims(o)
    report.merge(dims, prefix="dims:")
    if not dims.ok():
        return None
    hlc = hlc_check(o)
    report.merge(hlc)
    return assemble_orbifold_cohomology(o) if hlc.ok() else None


def check_primitive_polarizations(o: OrbifoldData, coeffs: Sequence) -> Report:
    """Per-degree verification: for every integer k <= n the degree-k block
    carries a weight-k Hodge structure, and its Lefschetz-primitive part is
    polarized by Q_k(a, b) = Q(a, L^{n-k} b)."""
    report = Report()
    asm = _gates(o, report)
    if asm is None:
        return report
    lef = NilpotentOperator(asm.lefschetz_matrix(coeffs))
    q_total = asm.total_form()
    n = o.n
    for k in range(0, n + 1):
        block_dim = asm.graded.dim_at(k)
        if block_dim == 0:
            report.passed("degree_structure", {"k": k, "dim": 0})
            continue
        h_k = asm.degree_structure(k)
        validity = validate_hodge_structure(h_k)
        if not validity.ok():
            report.failed("degree_structure",
                          {"k": k, "violations": [it.check_id for it in validity.failures()]})
            continue
        report.passed("degree_structure", {"k": k, "dim": block_dim})

        inclusion = asm.graded.block_subspace(k).basis
        prim = kernel(lef.power(n - k + 1) @ inclusion)
        lifted = inclusion @ prim.basis
        gram = lifted.transpose() @ q_total.gram @ (lef.power(n - k) @ lifted)
        ok, witness = primitive_polarization(h_k, prim, gram)
        (report.passed if ok else report.failed)("primitive_polarization", {"k": k, **witness})
    return report


def theorem_bigrading(asm: OrbifoldAssembly) -> Bigrading:
    """The total-space bigrading I^{p,q} = (pieces of type (n-q, n-p))."""
    n = asm.orbifold.n
    pieces = asm.window_pieces(asm.placements, 0, asm.total_dim)
    return Bigrading(asm.total_dim, {(n - b, n - a): s for (a, b), s in pieces.items()})


def check_total_pmhs(o: OrbifoldData, coeffs: Sequence) -> Report:
    """The total orbifold cohomology with N = L carries a weight-n polarized
    mixed Hodge structure split over R."""
    report = Report()
    asm = _gates(o, report)
    if asm is None:
        return report
    big = theorem_bigrading(asm)
    try:
        w, f, sub = mhs_from_bigrading(big)
    except ValueError as exc:
        report.failed("bigrading_splits", {"reason": str(exc)})
        return report
    report.merge(sub, prefix="mhs:")
    if is_split_over_R(big):
        report.passed("split_over_R")
    else:
        report.failed("split_over_R")
    q_total = asm.total_form()
    nil = NilpotentOperator(asm.lefschetz_matrix(coeffs))
    report.merge(check_pmhs(w, f, q_total, nil, o.n), prefix="pmhs:")
    return report


DEFAULT_COORDINATE_SAMPLES = (
    GaussRational(0, 1),
    GaussRational(0, 2),
    GaussRational(1, 1),
    GaussRational(0, Fraction(1, 2)),
    GaussRational(0, 3),
)


def default_samples(r: int, cap: int = 125) -> list:
    """Cartesian default sample grid, falling back to the diagonal when the
    grid would exceed the cap."""
    if len(DEFAULT_COORDINATE_SAMPLES) ** r <= cap:
        return [tuple(p) for p in itertools.product(DEFAULT_COORDINATE_SAMPLES, repeat=r)]
    return [(z,) * r for z in DEFAULT_COORDINATE_SAMPLES]


def check_kaehler_orbit(o: OrbifoldData, samples: Optional[Sequence] = None) -> Report:
    """Sample the nilpotent orbit exp(sum z_c L_c) . F over the complexified
    Kaehler cone: commutation of the class actions, constancy of the weight
    filtration over positive coefficient rays, and a Q-polarized weight-n
    Hodge structure at every sample with positive imaginary parts."""
    report = Report()
    asm = _gates(o, report)
    if asm is None:
        return report
    r = o.kaehler_basis_size
    mats = []
    for c in range(r):
        unit = [1 if t == c else 0 for t in range(r)]
        mats.append(asm.lefschetz_matrix(unit))
    commuting = True
    for a in range(r):
        for b in range(a + 1, r):
            if mats[a] @ mats[b] != mats[b] @ mats[a]:
                report.failed("actions_commute", {"classes": [a, b]})
                commuting = False
    if commuting:
        report.passed("actions_commute")
    else:
        return report

    big = theorem_bigrading(asm)
    try:
        w, f, sub = mhs_from_bigrading(big)
    except ValueError as exc:
        report.failed("bigrading_splits", {"reason": str(exc)})
        return report
    if not sub.ok():
        report.merge(sub, prefix="mhs:")
        return report

    rays = [(1,) * r]
    if r > 1:
        rays.append(tuple(range(1, r + 1)))
        rays.append(tuple(range(r, 0, -1)))
    for lam in rays:
        w_ray = weight_filtration(NilpotentOperator(asm.lefschetz_matrix(lam))).shift(-o.n)
        if w_ray == w:
            report.passed("weight_filtration_constant", {"ray": list(lam)})
        else:
            report.failed("weight_filtration_constant", {"ray": list(lam)})

    q_total = asm.total_form()
    operators = tuple(NilpotentOperator(m) for m in mats)
    if samples is None:
        samples = default_samples(r)
    for z in samples:
        pt = OrbitPoint(tuple(z), operators)
        sub = check_orbit_polarized_at(f, pt, o.n, q_total)
        label = [str(c) for c in pt.coefficients]
        if sub.failures():
            violations = [{"check": it.check_id, "witness": it.witness}
                          for it in sub.failures()]
            if pt.in_upper_cone():
                report.failed("orbit_sample", {"z": label, "violations": violations})
            else:
                report.warned("orbit_sample",
                              {"z": label, "outside_upper_cone": True,
                               "violations": violations})
        elif sub.warnings():
            report.warned("orbit_sample", {"z": label, "outside_upper_cone": True})
        else:
            report.passed("orbit_sample", {"z": label})
    return report
