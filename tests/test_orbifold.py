"""Sector data, age arithmetic, orbifold cohomology assembly, the graded
polarization and total-structure checks, and Kaehler orbit sampling."""

import random
from fractions import Fraction

import pytest

from orbhodge.exactla import GaussRational, I, QiMatrix, Subspace
from orbhodge.hodge import HodgeStructureData
from orbhodge.mhs import mhs_from_bigrading, weight_filtration, NilpotentOperator
from orbhodge.models import kummer_model, p1xp1_model, projective_space_model
from orbhodge.orbifold import (
    DEFAULT_COORDINATE_SAMPLES,
    GroupElementAction,
    OrbifoldData,
    SectorData,
    age,
    assemble_orbifold_cohomology,
    assemble_polarization,
    check_kaehler_orbit,
    check_primitive_polarizations,
    check_total_pmhs,
    default_samples,
    hlc_check,
    is_sl,
    orbifold_hard_lefschetz,
    tate_twist,
    theorem_bigrading,
    validate_dims,
)

from oracles import model_sector, random_sector_skeleton


def test_age_arithmetic():
    assert age(GroupElementAction(1, [0, 0])) == 0
    assert age(GroupElementAction(2, [1, 1])) == 1
    assert age(GroupElementAction(3, [1, 1])) == Fraction(2, 3)
    assert age(GroupElementAction(6, [1, 2, 3])) == 1
    assert is_sl(GroupElementAction(2, [1, 1]))
    assert not is_sl(GroupElementAction(3, [1, 1]))
    with pytest.raises(ValueError):
        GroupElementAction(4, [4])  # exponents live in 0..order-1


def test_age_of_inverse_counts_nontrivial_eigenvalues():
    rng = random.Random(59)
    for _ in range(40):
        order = rng.randint(1, 12)
        exps = [rng.randrange(order) for _ in range(rng.randint(1, 5))]
        g = GroupElementAction(order, exps)
        ginv = GroupElementAction(order, [(-e) % order for e in exps])
        assert age(g) + age(ginv) == sum(1 for e in exps if e)
        assert is_sl(g) == (age(g).denominator == 1)


def test_sector_pairing_autofill_uses_graded_sign():
    # degree 1 x degree 1 on a dim-1 sector: sign (-1)^(1*1) flips transpose
    h1 = HodgeStructureData(2, 1, {
        (1, 0): Subspace.span(2, [[GaussRational(1, 0), I]]),
        (0, 1): Subspace.span(2, [[GaussRational(1, 0), -I]]),
    })
    h0 = HodgeStructureData(1, 0, {(0, 0): Subspace.full(1)})
    h2 = HodgeStructureData(1, 2, {(1, 1): Subspace.full(1)})
    p1_pairing = {0: QiMatrix.from_rows([[1]]), 1: QiMatrix.from_rows([[0, 1], [-1, 0]])}
    s = SectorData("x", 0, "x", 1, {0: h0, 1: h1, 2: h2}, p1_pairing,
                   [{0: QiMatrix.from_rows([[1]])}])
    got = dict(s.pairing)
    assert got[1] == QiMatrix.from_rows([[0, 1], [-1, 0]])
    assert got[2] == got[0].transpose()

    # an asymmetric explicit fill is rejected
    bad = dict(p1_pairing)
    bad[2] = QiMatrix.from_rows([[-1]])
    with pytest.raises(ValueError, match="graded symmetric"):
        SectorData("x", 0, "x", 1, {0: h0, 1: h1, 2: h2},
                   {**bad, 0: QiMatrix.from_rows([[1]])},
                   [{0: QiMatrix.from_rows([[1]])}])


def test_sector_rejects_degenerate_pairing_and_bad_action_shape():
    h0 = HodgeStructureData(1, 0, {(0, 0): Subspace.full(1)})
    h2 = HodgeStructureData(1, 2, {(1, 1): Subspace.full(1)})
    with pytest.raises(ValueError, match="degenerate"):
        SectorData("x", 0, "x", 1, {0: h0, 2: h2},
                   {0: QiMatrix.from_rows([[0]])}, [{}])
    from orbhodge.exactla import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        SectorData("x", 0, "x", 1, {0: h0, 2: h2},
                   {0: QiMatrix.from_rows([[1]])},
                   [{0: QiMatrix.from_rows([[1, 1]])}])


def test_kaehler_action_must_shift_bidegree_one_one():
    # H^0 -> H^2 must land in (1,1); a (2,0)+(0,2)-only H^2 leaves no room
    h0 = HodgeStructureData(1, 0, {(0, 0): Subspace.full(1)})
    h2 = HodgeStructureData(2, 2, {
        (2, 0): Subspace.span(2, [[GaussRational(1, 0), I]]),
        (0, 2): Subspace.span(2, [[GaussRational(1, 0), -I]]),
    })
    h4 = HodgeStructureData(1, 4, {(2, 2): Subspace.full(1)})
    pairing = {0: QiMatrix.from_rows([[1]]), 2: QiMatrix.from_rows([[0, 1], [1, 0]])}
    with pytest.raises(ValueError, match=r"outside \(1,1\)"):
        SectorData("x", 0, "x", 2, {0: h0, 2: h2, 4: h4}, pairing,
                   [{0: QiMatrix.from_columns([[1, 1]])}])


def test_orbifold_data_enforces_partner_involution_and_base_sector():
    with pytest.raises(ValueError):
        OrbifoldData(2, 1, [model_sector("0", 0, "0", 2),
                            model_sector("a", 1, "missing", 0)])
    with pytest.raises(ValueError):
        OrbifoldData(2, 1, [model_sector("a", 1, "a", 0)])  # no age-0 base
    o = OrbifoldData(2, 1, [model_sector("0", 0, "0", 2),
                            model_sector("a", 1, "a", 0)])
    assert validate_dims(o).ok()


def test_validate_dims_flags_wrong_sector_dimension():
    o = OrbifoldData(3, 1, [model_sector("0", 0, "0", 3),
                            model_sector("a", 1, "a", 0)])  # should be dim 1
    rep = validate_dims(o)
    assert not rep.ok()
    assert rep.failures()[0].witness["sector"] == "a"


def test_kummer_assembly_dimensions_and_degrees():
    kum = kummer_model()
    asm = assemble_orbifold_cohomology(kum)
    assert [asm.graded.dim_at(k) for k in range(5)] == [1, 0, 22, 0, 1]
    assert asm.graded.total_dim == 24
    # placements cover every sector block disjointly
    assert sum(p[3] for p in asm.placements) == 24
    for t, j, off, d in asm.placements:
        sector = kum.sectors[t]
        assert asm.orbifold_degree(t, j) == j + 2 * sector.age


def test_projective_models_reassemble_their_classical_cohomology():
    p2 = assemble_orbifold_cohomology(projective_space_model(2))
    assert [p2.graded.dim_at(k) for k in range(5)] == [1, 0, 1, 0, 1]
    pp = assemble_orbifold_cohomology(p1xp1_model())
    assert [pp.graded.dim_at(k) for k in range(5)] == [1, 0, 2, 0, 1]


def test_kummer_hard_lefschetz_and_theorem_checks():
    kum = kummer_model()
    assert hlc_check(kum).ok()
    assert orbifold_hard_lefschetz(kum, [1]).ok()
    # the zero class is not a Kaehler class
    assert not orbifold_hard_lefschetz(kum, [0]).ok()

    rep = check_primitive_polarizations(kum, [1])
    assert rep.ok(), rep.as_dicts()
    prim = {it.witness["k"]: it.witness["primitive_dim"]
            for it in rep.items if it.check_id == "primitive_polarization"}
    assert prim == {0: 1, 2: 21}

    total = check_total_pmhs(kum, [1])
    assert total.ok(), total.as_dicts()


def test_product_models_pass_theorem_checks():
    for o, coeffs in ((projective_space_model(2), [1]), (p1xp1_model(), [1, 1])):
        assert check_primitive_polarizations(o, coeffs).ok()
        assert check_total_pmhs(o, coeffs).ok()


def test_theorem_bigrading_matches_kummer_hodge_diamond():
    asm = assemble_orbifold_cohomology(kummer_model())
    big = theorem_bigrading(asm)
    dims = sorted(((int(p), int(q)), s.dim) for p, q, s in big.pieces)
    assert dims == [((0, 0), 1), ((0, 2), 1), ((1, 1), 20), ((2, 0), 1), ((2, 2), 1)]
    w, f, sub = mhs_from_bigrading(big)
    assert sub.ok()
    # W recenters the Lefschetz weight filtration at n
    lef = asm.lefschetz_matrix([1])
    assert w == weight_filtration(NilpotentOperator(lef)).shift(-2)


def test_assemble_polarization_middle_and_off_middle():
    kum = kummer_model()
    mid = assemble_polarization(kum, 2)
    assert mid.gram.rows == 22 and mid.symmetry_sign == 1
    ends = assemble_polarization(kum, 0)
    assert ends.gram.rows == 2  # H^0 + H^4 as one paired block
    cex = OrbifoldData(3, 1, [model_sector("0", 0, "0", 3),
                              model_sector("a", 2, "b", 0),
                              model_sector("b", 1, "a", 0)])
    with pytest.raises(ValueError):
        assemble_orbifold_cohomology(cex).total_form()


def test_dimension_symmetry_alone_does_not_give_hard_lefschetz():
    # ages (2,1) point pair over a P^3-like base: every graded dimension is
    # mirror symmetric, yet no Lefschetz power connects the misplaced lines
    cex = OrbifoldData(3, 1, [model_sector("0", 0, "0", 3),
                              model_sector("a", 2, "b", 0),
                              model_sector("b", 1, "a", 0)])
    asm = assemble_orbifold_cohomology(cex)
    dims = [asm.graded.dim_at(k) for k in range(7)]
    assert dims == [1, 0, 2, 0, 2, 0, 1]
    assert dims == dims[::-1]
    assert not orbifold_hard_lefschetz(cex, [1]).ok()
    assert not hlc_check(cex).ok()


def test_hard_lefschetz_iff_age_symmetry_on_model_skeletons():
    rng = random.Random(61)
    seen_fail = seen_pass = 0
    for _ in range(25):
        o = random_sector_skeleton(rng)
        hlc_ok = hlc_check(o).ok()
        hl_ok = orbifold_hard_lefschetz(o, [1]).ok()
        assert hlc_ok == hl_ok
        seen_fail += not hlc_ok
        seen_pass += hlc_ok
    assert seen_fail and seen_pass  # the generator exercises both sides


def test_tate_twist_round_trip_and_reindexing():
    h0 = HodgeStructureData(1, 2, {(1, 1): Subspace.full(1)})
    tw = tate_twist(h0, 1)
    assert tw.weight == 4
    assert [(int(p), int(q)) for p, q, _ in tw.pieces] == [(2, 2)]
    assert tate_twist(tw, -1) == h0
    rng = random.Random(67)
    from oracles import random_hodge_structure
    for _ in range(10):
        h = random_hodge_structure(rng)
        s = rng.randint(-2, 2)
        assert tate_twist(tate_twist(h, s), -s) == h


def test_default_sample_grid_and_cap():
    assert len(DEFAULT_COORDINATE_SAMPLES) == 5
    assert all(len(z) == 1 for z in default_samples(1))
    assert len(default_samples(1)) == 5
    assert len(default_samples(2)) == 25
    assert len(default_samples(3)) == 125
    # 5^4 would blow the cap; the diagonal keeps one entry per coordinate set
    diag = default_samples(4)
    assert len(diag) == 5
    assert all(len(z) == 4 and len(set(z)) == 1 for z in diag)


def test_kaehler_orbit_check_on_small_models():
    rep = check_kaehler_orbit(projective_space_model(1))
    assert rep.ok(), rep.as_dicts()
    ids = {it.check_id for it in rep.items}
    assert "actions_commute" in ids
    assert any(i == "weight_filtration_constant" for i in ids)
    samples = [it for it in rep.items if it.check_id == "orbit_sample"]
    assert len(samples) == 5 and all(it.status == "pass" for it in samples)

    # a reflected sample is flagged as a warning, not a failure, off-cone
    neg = check_kaehler_orbit(projective_space_model(1), samples=[(-I,)])
    assert neg.verdict() == "caveat"
