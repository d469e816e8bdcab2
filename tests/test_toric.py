"""Lattice polytopes: polar duality, reflexivity, face enumeration, the
hypersurface sector scan, and the weighted projective generators."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from orbhodge.models import P11133_VERTICES, P11226_VERTICES, SQUARE_VERTICES
from orbhodge import toric
from orbhodge.orbifold import OrbifoldData, hlc_check
from orbhodge.toric import (
    HLC_CAVEAT,
    DegeneratePolytope,
    LatticePolytope,
    OriginNotInterior,
    cy_hypersurface_sectors,
    face_lattice,
    hlc_verdict,
    is_reflexive,
    lattice_points_of_face,
    polar_dual,
    relative_interior_points,
    unimodularly_equivalent,
    wps_polytope,
)

from oracles import (
    REFLEXIVE_STOCK,
    frac_find_facets,
    frac_polytope_facets,
    frac_relative_interior_points,
    model_sector,
    random_reflexive,
)

E4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def _poly(verts):
    return LatticePolytope(len(verts[0]), list(verts))


def _vertex_set(p):
    return {tuple(int(c) for c in v) for v in p.vertices}


def test_constructor_rejects_degenerate_input():
    with pytest.raises(DegeneratePolytope):
        LatticePolytope(2, [(1, 0), (-1, 0)])  # does not span the plane
    with pytest.raises(DegeneratePolytope):
        LatticePolytope(2, [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])  # interior point
    with pytest.raises(DegeneratePolytope):
        LatticePolytope(1, [(2,)])


def test_wps_polytope_duals_are_exact():
    dual = polar_dual(_poly(P11226_VERTICES))
    assert _vertex_set(dual) == {(-1, -2, -2, -6), *E4}
    dual = polar_dual(_poly(P11133_VERTICES))
    assert _vertex_set(dual) == {(-1, -1, -3, -3), *E4}


def test_square_dual_is_the_cross_polytope():
    dual = polar_dual(_poly(SQUARE_VERTICES))
    assert _vertex_set(dual) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_polar_dual_requires_interior_origin():
    shifted = LatticePolytope(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(OriginNotInterior):
        polar_dual(shifted)


def test_dual_involution_on_fixtures_and_random_stock():
    for verts in (P11226_VERTICES, P11133_VERTICES, SQUARE_VERTICES):
        p = _poly(verts)
        assert is_reflexive(p)
        assert _vertex_set(polar_dual(polar_dual(p))) == _vertex_set(p)
    rng = random.Random(71)
    for _ in range(50):
        p = random_reflexive(rng)
        assert is_reflexive(p)
        assert _vertex_set(polar_dual(polar_dual(p))) == _vertex_set(p)


def test_facet_tightness_of_dual_vertices():
    rng = random.Random(73)
    polys = [_poly(v) for v in (P11226_VERTICES, P11133_VERTICES, SQUARE_VERTICES)]
    polys += [random_reflexive(rng) for _ in range(10)]
    for p in polys:
        n = p.dim
        dual = polar_dual(p)
        for u in dual.vertices:
            hits = sum(1 for v in p.vertices
                       if sum(Fraction(a) * b for a, b in zip(u, v)) == -1)
            assert hits >= n


def test_face_lattice_counts_and_point_enumeration():
    cube = _poly([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    faces = face_lattice(cube)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.face_dim, 0)
        by_dim[f.face_dim] += 1
    assert by_dim == {0: 8, 1: 12, 2: 6}
    for f in faces:
        pts = lattice_points_of_face(cube, f)
        inner = relative_interior_points(cube, f)
        assert set(inner) <= set(pts)
        # interior points of proper subfaces never reappear
        for g in faces:
            if g is f or not set(g.vertex_subset) < set(f.vertex_subset):
                continue
            assert not set(relative_interior_points(cube, g)) & set(inner)
    edge = next(f for f in faces if f.face_dim == 1)
    assert len(lattice_points_of_face(cube, edge)) == 3
    assert len(relative_interior_points(cube, edge)) == 1


def test_wps_generators_reproduce_the_stored_vertex_lists():
    assert _vertex_set(wps_polytope([1, 1, 2, 2, 6])) == set(P11226_VERTICES)
    assert _vertex_set(wps_polytope([1, 1, 1, 3, 3])) == set(P11133_VERTICES)
    triangle = LatticePolytope(2, [(2, -1), (-1, 2), (-1, -1)])
    assert unimodularly_equivalent(wps_polytope([1, 1, 1]), triangle)
    with pytest.raises(ValueError):
        wps_polytope([2, 2])  # gcd > 1


def test_unimodular_equivalence_detects_shears_not_rescaling():
    square = _poly(SQUARE_VERTICES)
    sheared = LatticePolytope(2, [(a + b, b) for a, b in SQUARE_VERTICES])
    assert unimodularly_equivalent(square, sheared)
    diamond = _poly([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert not unimodularly_equivalent(square, diamond)


def test_sector_scan_on_the_two_wps_polytopes():
    cands = cy_hypersurface_sectors(_poly(P11226_VERTICES))
    assert [(c.lattice_point, c.face.face_dim, c.sector_dim, c.age) for c in cands] == [
        ((0, -1, -1, -3), 1, 1, Fraction(1))]
    v = hlc_verdict(_poly(P11226_VERTICES))
    assert v.verdict == "holds"
    assert v.note == HLC_CAVEAT
    assert v.witnesses == ()

    cands = cy_hypersurface_sectors(_poly(P11133_VERTICES))
    assert [(c.lattice_point, c.face.face_dim, c.sector_dim, c.age) for c in cands] == [
        ((0, 0, -1, -1), 2, 0, Fraction(1))]
    v = hlc_verdict(_poly(P11133_VERTICES))
    assert v.verdict == "fails"
    assert v.witnesses and v.witnesses[0].lattice_point == (0, 0, -1, -1)


def test_sector_dim_arithmetic_identity():
    for verts in (P11226_VERTICES, P11133_VERTICES):
        p = _poly(verts)
        n = p.dim
        for c in cy_hypersurface_sectors(p):
            assert c.orbit_closure_dim == (n - 1) - c.face.face_dim
            assert c.sector_dim == c.orbit_closure_dim - 1


def test_square_verdict_carries_the_caveat():
    v = hlc_verdict(_poly(SQUARE_VERTICES))
    assert v.verdict == "holds_with_caveat"
    assert cy_hypersurface_sectors(_poly(SQUARE_VERTICES)) == []


def _induced_skeleton(p):
    """Sector skeleton of the anticanonical hypersurface: an untwisted part
    plus, per candidate, an age-a sector with its eq:dims-forced partner."""
    n = p.dim - 1
    sectors = [model_sector("0", 0, "0", n)]
    for i, c in enumerate(cy_hypersurface_sectors(p)):
        partner_age = n - c.sector_dim - c.age
        if partner_age == c.age:
            sectors.append(model_sector(f"c{i}", c.age, f"c{i}", c.sector_dim))
        else:
            sectors.append(model_sector(f"c{i}", c.age, f"d{i}", c.sector_dim))
            sectors.append(model_sector(f"d{i}", partner_age, f"c{i}", c.sector_dim))
    return OrbifoldData(n, 1, sectors)


def test_failed_verdict_propagates_to_the_orbifold_check():
    holds = _induced_skeleton(_poly(P11226_VERTICES))
    assert hlc_check(holds).ok()
    fails = _induced_skeleton(_poly(P11133_VERTICES))
    assert not hlc_check(fails).ok()
    assert hlc_verdict(_poly(P11133_VERTICES)).verdict == "fails"


def _outcome(build, *args):
    try:
        return build(*args)
    except DegeneratePolytope as exc:
        return str(exc)


def _random_point_set(rng):
    """dim 2-4, dim+1 to dim+6 points with coordinates p/q, |p| <= 3, q <= 3;
    some sets are pressed into a hyperplane, some get a listed midpoint."""
    d = rng.randint(2, 4)
    pts = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
           for _ in range(rng.randint(d + 1, d + 6))]
    kind = rng.random()
    if kind < 0.15:
        pts = [q[:-1] + (q[0],) for q in pts]
    elif kind < 0.3:
        a, b = rng.sample(pts, 2)
        pts.insert(rng.randrange(len(pts) + 1), tuple((x + y) / 2 for x, y in zip(a, b)))
    return d, pts


def test_double_description_agrees_with_brute_force():
    rng = random.Random(97)
    seen = collections.Counter()
    for _ in range(400):
        d, pts = _random_point_set(rng)
        got = _outcome(lambda: LatticePolytope(d, pts).facets)
        assert got == _outcome(frac_polytope_facets, d, pts), (d, pts)
        seen[got.partition(" (")[0] if isinstance(got, str) else "facets"] += 1
        if isinstance(got, str) and got.startswith("listed point"):
            # the hull of every listed point, the non-vertices among them
            # tight on the facets through them
            assert toric._find_facets(d, pts) == frac_find_facets(d, pts), (d, pts)
    assert set(seen) == {"facets", "duplicate vertices", "listed point",
                         "vertices do not span the full dimension"}
    assert min(seen.values()) >= 20, seen


def _product(a, b):
    return [x + y for x in a for y in b]


def _free_sum(a, b):
    za, zb = (0,) * len(a[0]), (0,) * len(b[0])
    return [x + zb for x in a] + [za + y for y in b]


SEG, SQUARE, DIAMOND, TRI, _, HEXAGON = REFLEXIVE_STOCK[:6]
HEXAGON_POLAR = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def test_sector_scan_agrees_with_brute_force():
    rng = random.Random(101)
    polys = [random_reflexive(rng) for _ in range(30)]
    polys += [_poly(v) for v in (
        _product(SQUARE, SEG), _free_sum(TRI, SEG), _product(HEXAGON, SEG),
        _free_sum(HEXAGON, SEG), _product(TRI, TRI), _free_sum(TRI, TRI),
        _product(HEXAGON, SQUARE), _free_sum(_free_sum(SQUARE, SEG), SEG))]
    counts = []
    for p in polys:
        dual = polar_dual(p)
        want = []
        for face in face_lattice(dual):
            inner = frac_relative_interior_points(dual, face)
            assert relative_interior_points(dual, face) == inner
            if 1 <= face.face_dim <= p.dim - 2:
                want += [(x, face) for x in inner]
        assert [(c.lattice_point, c.face) for c in cy_hypersurface_sectors(p)] == want
        counts.append(len(want))
    assert max(counts) == 78  # the free sum of two triangles


CUBE5 = list(itertools.product((1, -1), repeat=5))
CROSS5 = [tuple(s if k == i else 0 for k in range(5)) for i in range(5) for s in (1, -1)]


def test_five_cube_dual_is_the_cross_polytope():
    assert _vertex_set(polar_dual(_poly(CUBE5))) == set(CROSS5)


def test_five_dim_cross_polytope_fails_with_the_centres_of_cube_faces():
    # the dual 5-cube has one interior lattice point, its centre, in each of
    # its 80 edges, 80 squares and 40 cubes; the squares and cubes violate
    v = hlc_verdict(_poly(CROSS5))
    assert v.verdict == "fails"
    assert len(v.candidates) == 200
    assert collections.Counter(c.face.face_dim for c in v.candidates) == {1: 80, 2: 80, 3: 40}
    assert len(v.witnesses) == 120


def test_hexagon_times_square_has_a_ten_vertex_dual():
    p = _poly(_product(HEXAGON, SQUARE))
    assert len(p.vertices) == 24 and len(p.facets) == 10
    # the polar of a product is the free sum of the polars
    assert _vertex_set(polar_dual(p)) == set(_free_sum(HEXAGON_POLAR, DIAMOND))
