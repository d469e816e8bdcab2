"""Lattice polytopes: polar duals, face lattices, interior lattice points.

Everything is exact over the rationals, and the combinatorics run on Python
ints.  Facets come from the double-description method (Fukuda and Prodon,
"Double description method revisited", 1996) on the homogenized vertex rows
(D v, -1), D the common denominator of the vertices.  The cone of
inequalities (a, c) with <D v, a> <= c starts as the simplicial cone that
n+1 affinely independent vertices cut out; each further vertex cuts it
again, and every adjacent pair of rays on opposite sides of the cut gives a
new ray (adjacent: at least n-1 common tight vertices, and no third ray
tight on all of them).  A final ray's tight vertices are its facet's
vertices.  Lattice points are enumerated over a bounding box on integer
facet rows, each with the set of facets it lies on; the sector scan walks
the polar dual once and puts each point inside the face whose supporting
facets are exactly that set, as PALP does (Kreuzer and Skarke,
math/0204356).  On top of the combinatorics sit the hypersurface-sector
enumeration and the hard Lefschetz verdict for generic anticanonical
hypersurfaces: a twisted sector candidate arises from each lattice point in
the relative interior of a face of the polar dual with dimension between 1
and n-2, carries age 1, and is compatible with the hard Lefschetz condition
exactly when that face is an edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .exactla import QiMatrix, rank


class DegeneratePolytope(ValueError):
    """Vertex data that does not span a full-dimensional polytope."""


class OriginNotInterior(ValueError):
    """Polar duality needs the origin strictly inside."""


@dataclass(frozen=True)
class Facet:
    """Inequality <normal, x> <= offset, tight on the listed vertices."""

    normal: tuple  # primitive integer vector
    offset: Fraction
    vertex_indices: tuple


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional polytope given by its vertices.

    Vertices may be rational (polar duals of lattice polytopes usually
    are); is_lattice() tells whether all are integral.  The constructor
    computes the facet inequalities and verifies every listed vertex is
    extreme (the facets through it meet in no other listed point).
    """

    dim: int
    vertices: tuple  # ((Fraction, ...), ...)
    facets: tuple

    def __init__(self, dim: int, vertices):
        dim = int(dim)
        verts = []
        for v in vertices:
            v = tuple(Fraction(x) for x in v)
            if len(v) != dim:
                raise DegeneratePolytope("vertex length disagrees with the dimension")
            verts.append(v)
        if len(set(verts)) != len(verts):
            raise DegeneratePolytope("duplicate vertices")
        if dim < 1:
            raise DegeneratePolytope("a polytope needs dimension at least 1")
        facets = _find_facets(dim, verts)
        masks = [_mask(f.vertex_indices) for f in facets]
        for i, v in enumerate(verts):
            meet = -1
            for m in masks:
                if m >> i & 1:
                    meet &= m
            if meet != 1 << i:
                raise DegeneratePolytope(f"listed point ({', '.join(map(str, v))}) is not a vertex")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "facets", facets)

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def contains(self, point: Sequence) -> bool:
        point = [Fraction(x) for x in point]
        den = math.lcm(*(x.denominator for x in point))
        ints = [x.numerator * (den // x.denominator) for x in point]
        return all(sum(map(mul, a, ints)) <= b * den for a, b in _facet_rows(self))

    def origin_interior(self) -> bool:
        return all(f.offset > 0 for f in self.facets)

    def vertex_set(self) -> set:
        return set(self.vertices)


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _homogenized(points) -> tuple:
    """(D, rows): D the common denominator of the points, and the integer
    rows (D p, -1)."""
    den = math.lcm(*(x.denominator for q in points for x in q))
    return den, [tuple(x.numerator * (den // x.denominator) for x in q) + (-1,) for q in points]


def _independent_rows(rows: list, width: int) -> list:
    """Indices of linearly independent rows, taken greedily in order until
    there are `width` of them; fewer when the rows have smaller rank."""
    echelon = []  # (pivot column, reduced row)
    chosen = []
    for i, row in enumerate(rows):
        r = list(row)
        for c, e in echelon:
            if r[c]:
                r = [e[c] * x - r[c] * y for x, y in zip(r, e)]
        if any(r):
            echelon.append((next(c for c, x in enumerate(r) if x), r))
            chosen.append(i)
            if len(chosen) == width:
                break
    return chosen


def _primitive(vec) -> tuple:
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def _find_facets(dim: int, verts: list) -> tuple:
    """Facets by the double-description method on integer vertex rows.

    A ray (a, c) of the cone {<D v, a> <= c for every vertex v} is stored
    with the bitmask of the vertices it is tight on.
    """
    den, rows = _homogenized(verts)
    start = _independent_rows(rows, dim + 1)
    if len(start) != dim + 1:
        raise DegeneratePolytope("vertices do not span the full dimension")
    # column j of minus the inverse is tight on every start row but the
    # j-th, and negative there; the inverse has a positive denominator
    inverse = QiMatrix.from_rows([rows[i] for i in start]).inverse()
    rays = [(_primitive([-r[j] for r in inverse.re]), _mask(i for i in start if i != k))
            for j, k in enumerate(start)]
    chosen = set(start)
    for i, row in enumerate(rows):
        if i not in chosen:
            rays = _cut(rays, row, 1 << i, dim - 1)
    facets = []
    for ray, tight in rays:
        g = gcd(*ray[:dim])
        facets.append(Facet(tuple(x // g for x in ray[:dim]), Fraction(ray[dim], den * g),
                            tuple(i for i in range(len(verts)) if tight >> i & 1)))
    return tuple(sorted(facets, key=lambda f: (f.normal, f.offset)))


def _cut(rays: list, row: tuple, bit: int, min_common: int) -> list:
    """One double-description step: the extreme rays of the cone cut by
    <row, x> <= 0, from those of the cone before the cut."""
    values = [sum(map(mul, row, ray)) for ray, _ in rays]
    out = [(ray, tight | bit if s == 0 else tight)
           for (ray, tight), s in zip(rays, values) if s <= 0]
    masks = [tight for _, tight in rays]
    for a, ((p, zp), sp) in enumerate(zip(rays, values)):
        if sp <= 0:
            continue
        for b, ((q, zq), sq) in enumerate(zip(rays, values)):
            if sq >= 0:
                continue
            common = zp & zq
            if common.bit_count() < min_common:
                continue
            if any(z & common == common for k, z in enumerate(masks) if k != a and k != b):
                continue
            out.append((_primitive([sp * y - sq * x for x, y in zip(p, q)]), common | bit))
    return out


def polar_dual(p: LatticePolytope) -> LatticePolytope:
    """The polytope {y : <y, x> >= -1 for all x in p}.

    Vertices are -normal/offset over the facets of p; they are integral
    exactly when p is reflexive.  Requires the origin strictly inside p.
    """
    if not p.origin_interior():
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    verts = [tuple(Fraction(-a, 1) / f.offset for a in f.normal) for f in p.facets]
    return LatticePolytope(p.dim, verts)


def is_reflexive(p: LatticePolytope) -> bool:
    """Lattice polytope with interior origin whose polar dual is lattice."""
    if not p.is_lattice() or not p.origin_interior():
        return False
    return polar_dual(p).is_lattice()


@dataclass(frozen=True)
class FaceInfo:
    """A proper nonempty face, recorded through its vertices."""

    face_dim: int
    vertex_subset: tuple  # sorted vertex indices
    supporting_facets: tuple  # indices into polytope.facets, tight on the face


def face_lattice(p: LatticePolytope) -> list:
    """All proper nonempty faces (vertices up to facets), dimension ascending.

    Faces are generated by closing the facet family under intersection;
    the Euler relation over the full lattice (empty face and the polytope
    included) is asserted.
    """
    facet_sets = [frozenset(f.vertex_indices) for f in p.facets]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in facet_sets:
                c = a & b
                if c and c not in faces:
                    new.add(c)
        faces |= new
        frontier = new
    rows = _homogenized(p.vertices)[1]
    infos = []
    for vs in faces:
        fdim = rank(QiMatrix.from_rows([rows[i] for i in vs], cols=p.dim + 1)) - 1
        supporting = tuple(i for i, f in enumerate(p.facets)
                           if vs <= frozenset(f.vertex_indices))
        infos.append(FaceInfo(fdim, tuple(sorted(vs)), supporting))
    infos.sort(key=lambda f: (f.face_dim, f.vertex_subset))
    euler = sum((-1) ** f.face_dim for f in infos)
    expected = 1 - (-1) ** p.dim  # proper faces balance the empty face and p itself
    if euler != expected:
        raise DegeneratePolytope(f"face lattice fails the Euler relation: {euler}")
    return infos


def _facet_rows(p: LatticePolytope) -> list:
    """Facet inequalities as integer rows (a, b): <a, x> <= b holds exactly
    when <normal, x> <= offset does."""
    return [(tuple(c * f.offset.denominator for c in f.normal), f.offset.numerator)
            for f in p.facets]


def _lattice_scan(p: LatticePolytope, vertex_ids) -> list:
    """(point, tight) for every lattice point of p in the bounding box of the
    listed vertices, in lexicographic order; tight is the bitmask of the
    facets the point lies on."""
    columns = zip(*(p.vertices[i] for i in vertex_ids))
    box = [range(min(map(math.ceil, c)), max(map(math.floor, c)) + 1) for c in columns]
    rows = _facet_rows(p)
    out = []
    for point in itertools.product(*box):
        tight = 0
        for k, (a, b) in enumerate(rows):
            value = sum(map(mul, a, point))
            if value > b:
                break
            if value == b:
                tight |= 1 << k
        else:
            out.append((point, tight))
    return out


def relative_interior_points(p: LatticePolytope, face: FaceInfo) -> list:
    """Lattice points strictly inside the face: tight on the face's
    supporting facets and strictly inside every other facet."""
    want = _mask(face.supporting_facets)
    return [x for x, tight in _lattice_scan(p, face.vertex_subset) if tight == want]


def lattice_points_of_face(p: LatticePolytope, face: FaceInfo) -> list:
    """All lattice points of the face (boundary included)."""
    want = _mask(face.supporting_facets)
    return [x for x, tight in _lattice_scan(p, face.vertex_subset) if tight & want == want]


@dataclass(frozen=True)
class SectorCandidate:
    """A twisted sector of a generic anticanonical hypersurface.

    One candidate per lattice point in the relative interior of a face of
    the polar dual with dimension 1..n-2; the age is always 1, and the
    sector dimension n-2-face_dim meets the hard Lefschetz requirement
    (dim = ambient hypersurface dim minus twice the age) exactly when the
    face is an edge.
    """

    lattice_point: tuple
    face: FaceInfo
    orbit_closure_dim: int
    sector_dim: int
    age: Fraction

    def __init__(self, lattice_point, face, n):
        object.__setattr__(self, "lattice_point", tuple(int(x) for x in lattice_point))
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "orbit_closure_dim", n - 1 - face.face_dim)
        object.__setattr__(self, "sector_dim", n - 2 - face.face_dim)
        object.__setattr__(self, "age", Fraction(1))


def cy_hypersurface_sectors(delta: LatticePolytope) -> list:
    """Sector candidates of a generic anticanonical hypersurface in the
    toric variety of the reflexive polytope delta."""
    if not is_reflexive(delta):
        raise ValueError("hypersurface sectors need a reflexive polytope")
    dual = polar_dual(delta)
    n = delta.dim
    # one scan of the dual: a point lies in the relative interior of the
    # face whose supporting facets are exactly the facets it is tight on
    inside = {}
    for point, tight in _lattice_scan(dual, range(len(dual.vertices))):
        inside.setdefault(tight, []).append(point)
    out = []
    for face in face_lattice(dual):
        if not 1 <= face.face_dim <= n - 2:
            continue
        for point in inside.get(_mask(face.supporting_facets), ()):
            out.append(SectorCandidate(point, face, n))
    return out


@dataclass(frozen=True)
class HlcVerdict:
    verdict: str  # "holds" | "fails" | "holds_with_caveat"
    candidates: tuple
    witnesses: tuple  # the failing candidates
    note: str


HLC_CAVEAT = ("only sectors arising from interior lattice points of faces of the "
              "polar dual (all of age 1) were enumerated; the classification of "
              "twisted sectors may be finer")


def hlc_verdict(delta: LatticePolytope) -> HlcVerdict:
    """Hard Lefschetz verdict for generic anticanonical hypersurfaces.

    A candidate sector (age 1, inside a hypersurface of dimension n-1)
    has the age of its partner exactly when sector_dim = n - 3, that is
    when its face is an edge; any candidate on a higher-dimensional face
    is a witness against the condition.  With no candidates at all the
    verdict is holds_with_caveat.
    """
    candidates = tuple(cy_hypersurface_sectors(delta))
    witnesses = tuple(c for c in candidates if c.face.face_dim != 1)
    if witnesses:
        return HlcVerdict("fails", candidates, witnesses,
                          "a sector candidate violates the dimension requirement")
    if not candidates:
        return HlcVerdict("holds_with_caveat", candidates, (),
                          "no qualifying faces; " + HLC_CAVEAT)
    return HlcVerdict("holds", candidates, (), HLC_CAVEAT)


def wps_polytope(weights: Sequence) -> LatticePolytope:
    """Anticanonical polytope of a weighted projective space.

    Normalization: the fan simplex has vertices e_1..e_n and
    -(w_1,...,w_n)/w_0; the result is its polar dual.  Weights must be
    positive with gcd 1, and w_0 must divide every other weight for the
    fan simplex to be a lattice polytope (so put a weight-1 entry first).
    """
    weights = [int(w) for w in weights]
    if len(weights) < 3 or any(w <= 0 for w in weights):
        raise ValueError("need at least three positive weights")
    g = 0
    for w in weights:
        g = gcd(g, w)
    if g != 1:
        raise ValueError("weights must have gcd 1")
    w0, rest = weights[0], weights[1:]
    if any(w % w0 for w in rest):
        raise ValueError("fan simplex is not a lattice polytope for these weights")
    n = len(rest)
    verts = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    verts.append(tuple(Fraction(-w, w0) for w in rest))
    simplex = LatticePolytope(n, verts)
    dual = polar_dual(simplex)
    if not dual.is_lattice():
        raise ValueError("anticanonical polytope is not a lattice polytope")
    return dual


def unimodularly_equivalent(a: LatticePolytope, b: LatticePolytope) -> bool:
    """Exact search for U in GL(Z) with U(vertices of a) = vertices of b.

    Brute force over ordered vertex tuples of b matched against one fixed
    independent tuple of a; meant for the handful-of-vertices scale.
    """
    if a.dim != b.dim or len(a.vertices) != len(b.vertices):
        return False
    n = a.dim
    base = None
    for subset in itertools.combinations(range(len(a.vertices)), n):
        cols = [list(a.vertices[i]) for i in subset]
        m = QiMatrix.from_columns(cols, rows=n)
        if rank(m) == n:
            base = (subset, m)
            break
    if base is None:
        return False
    subset, m = base
    target_set = b.vertex_set()
    m_inv = m.inverse()
    for images in itertools.permutations(b.vertices, n):
        u = QiMatrix.from_columns([list(v) for v in images], rows=n) @ m_inv
        entries = [u.entry(i, j) for i in range(n) for j in range(n)]
        if any(not x.is_real() or x.re.denominator != 1 for x in entries):
            continue
        det = u.det()
        if det.re not in (1, -1):
            continue
        mapped = set()
        for v in a.vertices:
            col = u @ QiMatrix.from_columns([list(v)])
            mapped.add(tuple(x.re for x in col.column(0)))
        if mapped == target_set:
            return True
    return False
