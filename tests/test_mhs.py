"""Mixed structures: weight filtrations, bigradings, polarized mixed
structures, nilpotent orbits."""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbhodge
from orbhodge.exactla import GaussRational, I, QiMatrix, Subspace
from orbhodge.mhs import (
    Bigrading,
    BilinearFormData,
    NilpotentOperator,
    NotCommuting,
    NotNilpotent,
    OrbitPoint,
    check_morphism_bidegree,
    check_orbit_polarized_at,
    check_pmhs,
    evaluate_orbit,
    is_split_over_R,
    mhs_from_bigrading,
    nilpotent_exp,
    weight_filtration,
)
from orbhodge.models import p1_degeneration

from oracles import int_matrix, oracle_weight_filtration, random_nilpotent, random_unimodular_int


def test_nilpotent_operator_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        NilpotentOperator(QiMatrix.identity(2))
    op = NilpotentOperator(QiMatrix.from_rows([[0, 0], [1, 0]]))
    assert op.index == 2


def test_nilpotent_operator_keeps_its_powers():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = random_nilpotent(rng, n)
        op = NilpotentOperator(m)
        assert len(op.powers) == op.index + 1
        for j in range(op.index + 3):
            assert op.power(j) == m.power(j)
    # powers are derived data: equality and repr see the matrix alone
    a = NilpotentOperator(QiMatrix.from_rows([[0, 0], [1, 0]]))
    assert a == NilpotentOperator(QiMatrix.from_rows([[0, 0], [1, 0]]))
    assert "powers" not in repr(a)


SELF_CHECK_PROBE = '''
from orbhodge import mhs
from orbhodge.exactla import QiMatrix, Subspace
mhs.kernel = lambda m: Subspace.full(m.cols)  # every kernel wrong on purpose
try:
    mhs.weight_filtration(mhs.NilpotentOperator(
        QiMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])))
except mhs.WeightFiltrationError as exc:
    print("raised:", exc)
'''


def test_weight_filtration_self_checks_survive_python_O():
    env = {"PYTHONPATH": str(Path(orbhodge.__file__).parents[1]), "PYTHONHASHSEED": "0"}

    def python(*args):
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)
        return done.returncode, done.stdout

    code, out = python("-O", "-c", SELF_CHECK_PROBE)
    assert code == 0 and out.startswith("raised: weight filtration not shifted by N"), out
    argv = ("-m", "orbhodge.cli", "check-orbifold", "p2", "--json")
    plain, optimized = python(*argv), python("-O", *argv)
    assert plain == optimized and plain[0] == 0 and '"verdict": "pass"' in plain[1]


def test_weight_filtration_single_jordan_blocks():
    for r in range(1, 5):
        rows = [[0] * r for _ in range(r)]
        for i in range(1, r):
            rows[i][i - 1] = 1
        w = weight_filtration(NilpotentOperator(QiMatrix.from_rows(rows)))
        dims = [w.at(l).dim for l in range(-r, r + 1)]
        # a single length-r string fills one dimension per occupied weight
        expected = [sum(1 for j in range(r) if r - 1 - 2 * j <= l) for l in range(-r, r + 1)]
        assert dims == expected


def test_weight_filtration_matches_jordan_oracle():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = random_nilpotent(rng, n)
        assert weight_filtration(NilpotentOperator(m)) == oracle_weight_filtration(m)


def test_weight_filtration_is_conjugation_equivariant():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = random_nilpotent(rng, n)
        g = int_matrix(random_unimodular_int(rng, n))
        moved = weight_filtration(NilpotentOperator(g @ m @ g.inverse()))
        base = weight_filtration(NilpotentOperator(m))
        for l in set(base.jump_indices()) | set(moved.jump_indices()):
            assert moved.at(l) == base.at(l).apply(g)


def test_nilpotent_exp_is_a_terminating_exponential():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = random_nilpotent(rng, n)
        e = nilpotent_exp(m)
        assert e @ nilpotent_exp(m.scale(-1)) == QiMatrix.identity(n)
        # one-parameter group law: exp(2m) = exp(m)^2
        assert nilpotent_exp(m.scale(2)) == e @ e
    with pytest.raises(NotNilpotent):
        nilpotent_exp(QiMatrix.identity(1))


def test_p1_degeneration_is_a_polarized_mixed_structure():
    bundle = p1_degeneration()
    big = bundle["bigrading"]
    w, f, sub = mhs_from_bigrading(big)
    assert sub.ok()
    assert is_split_over_R(big)
    assert w.at(-1).is_zero() and w.at(0).dim == 1 and w.at(2).is_full()

    n = NilpotentOperator(bundle["nilpotents"][0])
    q = BilinearFormData(bundle["form"], -1)
    rep = check_pmhs(w, f, q, n, 1)
    assert rep.ok(), rep.as_dicts()
    ids = {it.check_id for it in rep.items}
    assert {"n_real", "n_infinitesimal_isometry", "n_power_vanishes",
            "weight_filtration_matches", "hodge_isotropy"} <= ids
    assert any(i.startswith("graded_polarization") or i == "graded_polarization"
               for i in ids)


def test_p1_degeneration_with_flipped_form_fails_positivity():
    bundle = p1_degeneration(flip_form=True)
    w, f, _ = mhs_from_bigrading(bundle["bigrading"])
    n = NilpotentOperator(bundle["nilpotents"][0])
    q = BilinearFormData(bundle["form"], -1)
    rep = check_pmhs(w, f, q, n, 1)
    assert not rep.ok()
    bad = [it for it in rep.failures() if it.check_id == "graded_polarization"]
    assert bad and bad[0].witness["l"] == 1


def test_weight_filtration_mismatch_is_reported():
    bundle = p1_degeneration()
    w, f, _ = mhs_from_bigrading(bundle["bigrading"])
    # shifting W breaks the defining compatibility with N
    rep = check_pmhs(w.shift(1), f, BilinearFormData(bundle["form"], -1),
                     NilpotentOperator(bundle["nilpotents"][0]), 1)
    assert any(it.check_id == "weight_filtration_matches" for it in rep.failures())


def test_weights_below_zero_fail_the_power_check_without_raising():
    # N^{k+1} = 0 fails at k = -1 (N^0 = I) and asks for a negative power below
    bundle = p1_degeneration()
    w, f, _ = mhs_from_bigrading(bundle["bigrading"])
    n = NilpotentOperator(bundle["nilpotents"][0])
    for k in (-1, -3):
        rep = check_pmhs(w, f, BilinearFormData(bundle["form"], -1), n, k)
        assert ("n_power_vanishes", {"power": k + 1}) in [
            (it.check_id, it.witness) for it in rep.failures()]


def test_non_split_bigrading_detected():
    # conj(I^{1,1}) agrees with I^{1,1} only modulo the weight-0 part
    big = Bigrading(2, [
        (1, 1, Subspace.span(2, [[GaussRational(1, 0), I]])),
        (0, 0, Subspace.span(2, [[0, 1]])),
    ])
    w, f, sub = mhs_from_bigrading(big)
    assert sub.ok(), sub.as_dicts()
    assert not is_split_over_R(big)
    assert w.at(0).dim == 1 and w.at(2).is_full()


def test_bigrading_that_is_not_a_mixed_structure_fails():
    # conj(I^{1,1}) is not congruent to I^{1,1} modulo lower weight here:
    # the defect leaves the span of the declared pieces' weight ladder
    big = Bigrading(2, [
        (1, 1, Subspace.span(2, [[GaussRational(1, 0), I]])),
        (1, 0, Subspace.span(2, [[0, 1]])),
    ])
    w, f, sub = mhs_from_bigrading(big)
    assert not sub.ok()


def test_morphism_bidegree_check():
    big = p1_degeneration()["bigrading"]
    n = p1_degeneration()["nilpotents"][0]
    # the degeneration operator has bidegree (-1,-1)
    assert check_morphism_bidegree(n, big, -1, -1).ok()
    assert not check_morphism_bidegree(n, big, 0, 0).ok()


def test_orbit_point_validation_and_cone():
    n1 = QiMatrix.from_rows([[0, 0], [1, 0]])
    pt = OrbitPoint((I,), (NilpotentOperator(n1),))
    assert pt.in_upper_cone()
    assert not OrbitPoint((-I,), (NilpotentOperator(n1),)).in_upper_cone()
    assert not OrbitPoint((GaussRational(1, 0),), (NilpotentOperator(n1),)).in_upper_cone()

    a = QiMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = QiMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(NotCommuting):
        OrbitPoint((I, I), (NilpotentOperator(a), NilpotentOperator(b)))


def test_evaluate_orbit_moves_the_filtration():
    bundle = p1_degeneration()
    _, f, _ = mhs_from_bigrading(bundle["bigrading"])
    ops = (NilpotentOperator(bundle["nilpotents"][0]),)
    moved = evaluate_orbit(f, OrbitPoint((I,), ops))
    # exp(i N) e1 = e1 + i e2
    assert moved.at(1) == Subspace.span(2, [[GaussRational(1, 0), I]])
    assert moved.at(0).is_full() and moved.at(2).is_zero()


def test_orbit_polarized_at_sample_points():
    bundle = p1_degeneration()
    _, f, _ = mhs_from_bigrading(bundle["bigrading"])
    ops = (NilpotentOperator(bundle["nilpotents"][0]),)
    q = BilinearFormData(bundle["form"], -1)

    good = check_orbit_polarized_at(f, OrbitPoint((I,), ops), 1, q)
    assert good.ok(), good.as_dicts()

    bad = check_orbit_polarized_at(f, OrbitPoint((-I,), ops), 1, q)
    assert not bad.ok()
    wit = [it for it in bad.failures() if it.check_id.endswith("positivity")]
    assert wit and wit[0].witness["minor_index"] == 1
    # leaving the cone is only a warning; the failure above is the verdict
    assert any(it.check_id == "sample_in_upper_cone" for it in bad.warnings())
