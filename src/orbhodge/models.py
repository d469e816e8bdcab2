"""Worked instances used as fixtures: projective spaces, a product of lines,
the weight-one torus structure, a one-line degeneration, and the Kummer
surface with its sixteen point sectors.

Every builder returns exact data; the shipped JSON fixtures are serialized
from these and the tests compare the two, so the files cannot drift.
"""

from .exactla import GaussRational, QiMatrix, Subspace, as_gauss
from .hodge import BilinearFormData, HodgeStructureData
from .mhs import Bigrading
from .orbifold import OrbifoldData, SectorData

I = GaussRational(0, 1)


def _line(j):
    # one-dimensional H^j of pure type (j/2, j/2)
    half = j // 2
    return HodgeStructureData(1, j, {(half, half): Subspace.full(1)})


def projective_space_model(n: int) -> OrbifoldData:
    """P^n as a one-sector orbifold: hyperplane-power basis, all pairings 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    cohomology = {2 * j: _line(2 * j) for j in range(n + 1)}
    pairing = {2 * j: QiMatrix.from_rows([[1]]) for j in range(n + 1)}
    action = {2 * j: QiMatrix.from_rows([[1]]) for j in range(n)}
    sector = SectorData("1", 0, "1", n, cohomology, pairing, [action])
    return OrbifoldData(n, 1, [sector])


def p1xp1_model() -> OrbifoldData:
    """P^1 x P^1 with the two rulings as separate Kaehler classes.

    H^2 basis (D1, D2); D1.D2 = 1 and D1^2 = D2^2 = 0.
    """
    cohomology = {
        0: _line(0),
        2: HodgeStructureData(2, 2, {(1, 1): Subspace.full(2)}),
        4: _line(4),
    }
    pairing = {
        0: QiMatrix.from_rows([[1]]),
        2: QiMatrix.from_rows([[0, 1], [1, 0]]),
    }
    act1 = {0: QiMatrix.from_rows([[1], [0]]), 2: QiMatrix.from_rows([[0, 1]])}
    act2 = {0: QiMatrix.from_rows([[0], [1]]), 2: QiMatrix.from_rows([[1, 0]])}
    sector = SectorData("1", 0, "1", 2, cohomology, pairing, [act1, act2])
    return OrbifoldData(2, 2, [sector])


def torus_weight_one():
    """H^1 of an elliptic curve: the smallest polarized weight-one structure."""
    h = HodgeStructureData(2, 1, {
        (1, 0): Subspace.span(2, [[1, I]]),
        (0, 1): Subspace.span(2, [[1, -I]]),
    })
    q = BilinearFormData(QiMatrix.from_rows([[0, 1], [-1, 0]]), -1)
    return h, q


def p1_degeneration(flip_form: bool = False):
    """H^even(P^1) with its Lefschetz operator as the nilpotent.

    Weight-one bigrading: H^0 sits in I^{1,1}, H^2 in I^{0,0}.  The form is
    the assembly-signed pairing; flip_form negates it, which kills graded
    positivity at l = 1 while every algebraic identity still holds.
    """
    bigrading = Bigrading(2, [
        (1, 1, Subspace.span(2, [[1, 0]])),
        (0, 0, Subspace.span(2, [[0, 1]])),
    ])
    n_op = QiMatrix.from_rows([[0, 0], [1, 0]])
    sign = -1 if flip_form else 1
    form = QiMatrix.from_rows([[0, sign], [-sign, 0]])
    return {
        "ambient_dim": 2,
        "weight": 1,
        "bigrading": bigrading,
        "form": form,
        "nilpotents": [n_op],
        "samples": [(GaussRational(0, 1),)],
    }


# T^4 = C^2/lattice with z1 = x1 + i x2, z2 = x3 + i x4; the involution is
# z -> -z.  Invariant forms: all of H^0, H^2, H^4.  H^2 basis order:
# e12, e13, e14, e23, e24, e34.

# holomorphic form dz1 ^ dz2 = e13 + i e14 + i e23 - e24
_SIGMA = [0, 1, I, I, -1, 0]

# intersection on T^4 (volume e1234 = 1): e12.e34 = 1, e13.e24 = -1,
# e14.e23 = 1; the quotient halves every integral, a positive overall
# scale that no positivity or symmetry check can see.
_KUMMER_P2 = QiMatrix.from_rows([
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
])


def kummer_model() -> OrbifoldData:
    """T^4/(z -> -z): invariant torus cohomology plus 16 age-one points.

    The Kaehler class is the product class e12 + e34; it kills the (2,0)
    and (1,1)-primitive parts of H^2 and sends 1 to e12 + e34 and each of
    e12, e34 to the volume class.
    """
    h2 = HodgeStructureData(6, 2, {
        (2, 0): Subspace.span(6, [_SIGMA]),
        (1, 1): Subspace.span(6, [
            [1, 0, 0, 0, 0, 0],           # e12
            [0, 0, 0, 0, 0, 1],           # e34
            [0, 1, 0, 0, 1, 0],           # e13 + e24
            [0, 0, 1, -1, 0, 0],          # e14 - e23
        ]),
        (0, 2): Subspace.span(6, [[as_gauss(c).conj() for c in _SIGMA]]),
    })
    cohomology = {0: _line(0), 2: h2, 4: _line(4)}
    pairing = {
        0: QiMatrix.from_rows([[1]]),
        2: _KUMMER_P2,
    }
    action = {
        0: QiMatrix.from_columns([[1, 0, 0, 0, 0, 1]]),
        2: QiMatrix.from_rows([[1, 0, 0, 0, 0, 1]]),
    }
    sectors = [SectorData("1", 0, "1", 2, cohomology, pairing, [action])]
    for k in range(16):
        name = f"pt{k:02d}"
        sectors.append(SectorData(
            name, 1, name, 0,
            {0: _line(0)},
            {0: QiMatrix.from_rows([[1]])},
            [{}],
        ))
    return OrbifoldData(2, 1, sectors)


# Anticanonical polytopes of two weighted projective 4-spaces, in the
# normalization where the dual is conv{-(w_1..w_n)/w_0, e_1..e_n}.  The
# second list corrects a misprint in its source: the printed vertex
# (-1,2,-1,-1) leaves the origin outside the hull and is incompatible
# with the stated dual; the weight symmetry forces (-1,8,-1,-1).
P11226_VERTICES = [
    (11, -1, -1, -1), (-1, 5, -1, -1), (-1, -1, 5, -1),
    (-1, -1, -1, 1), (-1, -1, -1, -1),
]
P11133_VERTICES = [
    (8, -1, -1, -1), (-1, 8, -1, -1), (-1, -1, 2, -1),
    (-1, -1, -1, 2), (-1, -1, -1, -1),
]
SQUARE_VERTICES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
