"""Lattice polytopes: polar duals, face lattices, interior lattice points.

Everything is exact over the rationals.  Facets are found by exhaustive
search over n-subsets of vertices (adequate for the handful-of-vertices
scale this library targets; the cost is O(C(v, n) * v * n^3)).  On top of
the combinatorics sit the hypersurface-sector enumeration and the hard
Lefschetz verdict for generic anticanonical hypersurfaces: a twisted
sector candidate arises from each lattice point in the relative interior
of a face of the polar dual with dimension between 1 and n-2, carries age
1, and is compatible with the hard Lefschetz condition exactly when that
face is an edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .exactla import QiMatrix, kernel, rank


class DegeneratePolytope(ValueError):
    """Vertex data that does not span a full-dimensional polytope."""


class OriginNotInterior(ValueError):
    """Polar duality needs the origin strictly inside."""


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _primitive(vec: Sequence) -> tuple:
    """Scale a rational vector to a primitive integer vector, same ray."""
    denoms = [Fraction(x).denominator for x in vec]
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ints = [int(Fraction(x) * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _affine_rank(points: Sequence) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(p, base)] for p in points[1:]]
    return rank(QiMatrix.from_rows(rows, cols=len(base)))


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
    extreme (tight on facets whose normals span the space).
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
        if _affine_rank(verts) != dim:
            raise DegeneratePolytope("vertices do not span the full dimension")
        facets = _find_facets(dim, verts)
        for i, v in enumerate(verts):
            tight = [f.normal for f in facets if i in f.vertex_indices]
            if not tight or rank(QiMatrix.from_rows([list(t) for t in tight], cols=dim)) != dim:
                raise DegeneratePolytope(f"listed point ({', '.join(map(str, v))}) is not a vertex")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "facets", facets)

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def contains(self, point: Sequence) -> bool:
        return all(_dot(f.normal, point) <= f.offset for f in self.facets)

    def origin_interior(self) -> bool:
        return all(f.offset > 0 for f in self.facets)

    def vertex_set(self) -> set:
        return set(self.vertices)


def _find_facets(dim: int, verts: list) -> tuple:
    found = {}
    for subset in itertools.combinations(range(len(verts)), dim):
        pts = [verts[i] for i in subset]
        if _affine_rank(pts) != dim - 1:
            continue
        base = pts[0]
        rows = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
        ker = kernel(QiMatrix.from_rows(rows, cols=dim))
        if ker.dim != 1:
            continue
        normal_vec = [c.re for c in ker.basis.column(0)]
        normal = _primitive(normal_vec)
        offset = _dot(normal, base)
        values = [_dot(normal, v) for v in verts]
        if all(x <= offset for x in values):
            pass
        elif all(x >= offset for x in values):
            normal = tuple(-x for x in normal)
            offset = -offset
            values = [-x for x in values]
        else:
            continue
        key = (normal, offset)
        if key not in found:
            tight = tuple(i for i, x in enumerate(values) if x == offset)
            found[key] = Facet(normal, offset, tight)
    if not found:
        raise DegeneratePolytope("no facets found")
    return tuple(sorted(found.values(), key=lambda f: (f.normal, f.offset)))


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
    infos = []
    for vs in faces:
        pts = [p.vertices[i] for i in vs]
        fdim = _affine_rank(pts)
        supporting = tuple(i for i, f in enumerate(p.facets)
                           if vs <= frozenset(f.vertex_indices))
        infos.append(FaceInfo(fdim, tuple(sorted(vs)), supporting))
    infos.sort(key=lambda f: (f.face_dim, f.vertex_subset))
    euler = sum((-1) ** f.face_dim for f in infos)
    expected = 1 - (-1) ** p.dim  # proper faces balance the empty face and p itself
    if euler != expected:
        raise DegeneratePolytope(f"face lattice fails the Euler relation: {euler}")
    return infos


def _bounding_box(points: Sequence) -> list:
    lo = [min(Fraction(p[i]) for p in points) for i in range(len(points[0]))]
    hi = [max(Fraction(p[i]) for p in points) for i in range(len(points[0]))]
    return [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]


def relative_interior_points(p: LatticePolytope, face: FaceInfo) -> list:
    """Lattice points strictly inside the face: tight on the face's
    supporting facets and strictly inside every other facet."""
    pts = [p.vertices[i] for i in face.vertex_subset]
    supporting = set(face.supporting_facets)
    out = []
    for candidate in itertools.product(*_bounding_box(pts)):
        ok = True
        for i, f in enumerate(p.facets):
            value = _dot(f.normal, candidate)
            if i in supporting:
                if value != f.offset:
                    ok = False
                    break
            elif value >= f.offset:
                ok = False
                break
        if ok:
            out.append(tuple(candidate))
    return sorted(out)


def lattice_points_of_face(p: LatticePolytope, face: FaceInfo) -> list:
    """All lattice points of the face (boundary included)."""
    pts = [p.vertices[i] for i in face.vertex_subset]
    supporting = set(face.supporting_facets)
    out = []
    for candidate in itertools.product(*_bounding_box(pts)):
        if all(_dot(p.facets[i].normal, candidate) == p.facets[i].offset
               for i in supporting) and p.contains(candidate):
            out.append(tuple(candidate))
    return sorted(out)


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
    out = []
    for face in face_lattice(dual):
        if not 1 <= face.face_dim <= n - 2:
            continue
        for point in relative_interior_points(dual, face):
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
