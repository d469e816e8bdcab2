"""Seeded inputs, timed calls and exact answer checks for the four workloads.

A workload hands out rounds.  A round is a list of items whose inputs depend
only on (workload, seed, round index), so a run that repeats rounds sees
fresh inputs and two runs with one seed see identical ones.  Each item holds
one timed call into orbhodge's public functions and a check that compares the
call's result with an answer derived from how the input was built.  Checks
run outside the timed region and use their own rational arithmetic, never
orbhodge's, so a wrong result in the program cannot hide in its own check.

The per-round menus are fixed and only the seeded parameters vary, so every
seed puts the same kind and amount of work in a round.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional


@dataclass
class Item:
    label: str
    call: Callable[[], object]  # the timed call; returns the program's result
    check: Callable[[object], Optional[str]]  # None when correct, else the reason
    inputs: object = None  # the generated input and expected answer, as plain data
    facts: dict = field(default_factory=dict)  # input sizes for the summary


def round_rng(workload: str, seed, round_index: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{round_index}")


# --------------------------------------------------------- exact rationals

def frac_rank(rows) -> int:
    """Rank of a rational matrix given as a list of rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def frac_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def frac_inverse(a):
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def same_span(got, want) -> bool:
    """Equal column spans for two lists of rational vectors."""
    dim = len(got)
    if dim != len(want) or (dim and frac_rank(got) != dim):
        return False
    return not dim or frac_rank(list(got) + list(want)) == dim


def entry_bits(values) -> int:
    return max((max(Fraction(x).numerator.bit_length(), Fraction(x).denominator.bit_length())
                for x in values), default=0)


# ----------------------------------------------------- machine speed reference

# A fixed exact elimination in the benchmark's own arithmetic.  Its time
# tracks how fast the machine runs Python rational arithmetic at the moment,
# and nothing in orbhodge changes it.
REFERENCE = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(9)]
             for i in range(8)]
# about the mean reference time sampled during runs on the machine of
# README's first numbers, so that reference seconds read close to seconds there
REFERENCE_S = 0.0065


def reference_seconds() -> float:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            frac_rank(REFERENCE)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


# The cli workload's items are interpreter start-ups, which track the
# machine's speed at starting processes and importing modules rather than
# its speed at arithmetic; their reference is a fresh interpreter importing
# the third-party and standard modules that orbhodge.cli imports.
SPAWN_REFERENCE = ("import argparse, dataclasses, fractions, itertools, json, math, pathlib, re, "
                   "jsonschema")
SPAWN_REFERENCE_S = 0.2


def spawn_reference_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_REFERENCE], check=True,
                   env=dict(os.environ, PYTHONHASHSEED="0"))
    return time.perf_counter() - t0


def reference_scales(spans, samples, nominal=REFERENCE_S):
    """Per (start, end) span, nominal over the mean reference time of the
    samples taken in it, the last one before it and the first one after it:
    the factor that turns its seconds into reference seconds.  The machine's
    speed can change by half within a second, so only the samples next to a
    span say how fast it ran."""
    samples = sorted(samples)
    starts = [t for t, _ in samples]
    scales = []
    for a, b in spans:
        lo = max(bisect.bisect_left(starts, a) - 1, 0)
        near = samples[lo:bisect.bisect_right(starts, b) + 1]
        scales.append(nominal / statistics.fmean(s for _, s in near))
    return scales


def random_unimodular(rng, n, steps, coeffs):
    """Integer matrix of determinant +-1 built from row shears and swaps."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            m[a] = [-x for x in m[a]]
            continue
        c = rng.choice(coeffs)
        m[a] = [x + c * y for x, y in zip(m[a], m[b])]
        if rng.random() < 0.3:
            m[a], m[b] = m[b], m[a]
    return m


# --------------------------------------------------------------- nilpotent

def criterion3_lower(rng, n):
    """A sparse strictly lower triangular rational matrix, drawn entry by
    entry as acceptance criterion 3 draws its nilpotent matrices
    (random_nilpotent in tests/oracles.py)."""
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if j < i and rng.random() < 0.6 else Fraction(0) for j in range(n)]
            for i in range(n)]


def jordan_type(nilpotent) -> list:
    """Block sizes, largest first, of a nilpotent matrix: rank N^(k-1) -
    rank N^k blocks have size at least k."""
    ranks, power = [len(nilpotent)], nilpotent
    while ranks[-1]:
        ranks.append(frac_rank(power))
        power = frac_matmul(power, nilpotent)
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return [k for k in range(len(at_least) - 1, 0, -1)
            for _ in range(at_least[k - 1] - at_least[k])]


def nilpotent_input(shape, rng, n):
    """(matrix, expected W) for g N0 g^-1 with N0 in Jordan form.

    shape draws the Jordan type, from a matrix drawn as criterion 3 draws
    its nilpotent matrices, and criterion 3's unimodular change of basis
    times a lower triangular rational matrix with entries drawn like
    criterion 3's; entry sizes and the cost of the filtration then follow
    criterion 3's draws.  rng draws a signed permutation s, and g = s times
    the change of basis.  A block of size k with basis b_0..b_{k-1} and
    N0 b_j = b_{j+1} puts b_j in weight k-1-2j, and W(g N0 g^-1) = g W(N0),
    so W_l is spanned by the columns g b_j of weight at most l.
    """
    blocks = jordan_type(criterion3_lower(shape, n))
    weights = []
    n0 = [[Fraction(0)] * n for _ in range(n)]
    for k in blocks:
        off = len(weights)
        for j in range(k):
            weights.append(k - 1 - 2 * j)
            if j + 1 < k:
                n0[off + j + 1][off + j] = Fraction(1)
    lower = criterion3_lower(shape, n)
    for i in range(n):
        lower[i][i] = Fraction(shape.choice((-4, -3, -2, -1, 1, 2, 3, 4)), shape.randint(1, 3))
    g = frac_matmul(random_unimodular(shape, n, 6, (-2, -1, 1, 2)), lower)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    g = [[sign * x for x in g[p]] for sign, p in zip(signs, perm)]
    matrix = frac_matmul(frac_matmul(g, n0), frac_inverse(g))
    columns = [[g[i][c] for i in range(n)] for c in range(n)]
    expected = {l: [columns[c] for c in range(n) if weights[c] <= l]
                for l in range(-n, n + 1)}
    return matrix, expected, blocks


def check_weight_filtration(w, expected) -> Optional[str]:
    for l, want in sorted(expected.items()):
        got = []
        for v in w.at(l).vectors():
            if any(x.im for x in v):
                return f"W_{l} has a non-real basis vector"
            got.append([x.re for x in v])
        if not same_span(got, want):
            return f"W_{l} differs from g W(J)_{l}"
    return None


class Nilpotent:
    """One round: one matrix of each size 1..8, in seeded order.

    The Jordan types and changes of basis are drawn as criterion 3 draws
    them, from a random generator that depends on the round alone, so every
    seed gets the same mix of work; the seed draws the order and a signed
    permutation of the coordinates of each matrix.
    """

    name = "nilpotent"
    min_rounds = 18
    min_items = 144

    def __init__(self):
        from orbhodge import exactla, mhs
        self.exactla, self.mhs = exactla, mhs

    def summary(self) -> dict:
        return {"matrix_sizes": "1-8, one of each size per round",
                "jordan_types": "as criterion 3 draws them, the same for every seed",
                "change_of_basis": "criterion 3's unimodular g times a criterion-3-style "
                                   "lower triangular matrix, then a seeded signed permutation"}

    def round(self, seed, r):
        rng = round_rng(self.name, seed, r)
        shape = round_rng(self.name, "shape", r)
        inputs = {n: nilpotent_input(shape, rng, n) for n in range(1, 9)}
        sizes = list(range(1, 9))
        rng.shuffle(sizes)
        items = []
        for n in sizes:
            matrix, expected, blocks = inputs[n]
            qm = self.exactla.QiMatrix.from_rows(matrix)
            mhs = self.mhs
            items.append(Item(
                f"n{n}",
                lambda qm=qm: mhs.weight_filtration(mhs.NilpotentOperator(qm)),
                lambda w, expected=expected: check_weight_filtration(w, expected),
                (matrix, expected),
                {"size": n, "nilpotency_index": blocks[0],
                 "input_bits": entry_bits(x for row in matrix for x in row)}))
        return items


# ---------------------------------------------------------------- orbifold

ORBIFOLD_CHECKS = ("validate_dims", "hlc_check", "orbifold_hard_lefschetz",
                   "check_primitive_polarizations", "check_total_pmhs",
                   "check_kaehler_orbit")


def duplicate_sectors(o) -> int:
    """Sectors whose data, names aside, equals another sector's."""
    keys = [(s.age, s.dim, s.cohomology, s.pairing, s.kaehler_actions, s.partner == s.id)
            for s in o.sectors]
    return sum(1 for k in keys if keys.count(k) > 1)


def skeleton_plan(rng, n, broken):
    """Sector list [(id, age, partner, dim)] in the style of criterion 5:
    P^d-model sectors with dim = n - age - partner's age.  A broken plan
    holds at least one partner pair with different ages and fails fast at
    the age gate.  A symmetric plan goes through every check, so it always
    carries exactly three twisted sectors: each symmetric skeleton of one n
    then costs about the same."""
    plan = [("0", 0, "0", n)]
    if not broken:
        idx = 0
        while len(plan) < 4:
            a = rng.randint(1, n // 2)
            if len(plan) < 3 and rng.random() < 0.5:
                plan += [(f"p{idx}", a, f"q{idx}", n - 2 * a), (f"q{idx}", a, f"p{idx}", n - 2 * a)]
            else:
                plan.append((f"s{idx}", a, f"s{idx}", n - 2 * a))
            idx += 1
        return plan
    for idx in range(rng.randint(1, 3)):
        kind = rng.random()
        if idx == 0 or kind < 0.3:
            b = rng.randint(2, n - 1)
            a = rng.randint(1, min(b - 1, n - b))
            d = n - a - b
            plan += [(f"t{idx}", a, f"u{idx}", d), (f"u{idx}", b, f"t{idx}", d)]
        elif kind < 0.6:
            a = rng.randint(1, n // 2)
            plan.append((f"s{idx}", a, f"s{idx}", n - 2 * a))
        else:
            a = rng.randint(1, n // 2)
            plan += [(f"p{idx}", a, f"q{idx}", n - 2 * a), (f"q{idx}", a, f"p{idx}", n - 2 * a)]
    return plan


def upper_half_plane_point(rng):
    return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def check_verdicts(got, want) -> Optional[str]:
    for name, g, w in zip(ORBIFOLD_CHECKS, got, want):
        if g != w:
            return f"{name}: {g}, expected {w}"
    return None


class Orbifold:
    """One round: the fixture orbifolds (COPIES of each) and SKELETONS
    seeded sector skeletons, each through the six theorem checks."""

    name = "orbifold"
    min_rounds = 2
    min_items = 67
    SKELETONS = 16
    # Half the skeletons fail fast at the age gate, and each item class
    # costs about twice the one below it: broken skeletons < P^1 < P^2 <
    # P1xP1, P^3 < symmetric skeletons, P^4 < Kummer.  With these counts
    # the median item of a run is the middle of the P^2 copies and the tail
    # item the middle of the symmetric skeletons, never the edge between
    # two classes.  Kummer, about 10 s an item, comes in the first round
    # only, so that a run holds it once.
    COPIES = {"kummer": 1, "p1": 6, "p2": 8, "p1xp1": 1, "p3": 1, "p4": 1}

    def __init__(self):
        from orbhodge import exactla, fixture_store, models, orbifold, serialization
        self.exactla, self.orbifold = exactla, orbifold
        self.fixtures = [
            ("kummer", serialization.load_document(fixture_store.shipped_text("kummer"))[1]),
            ("p1xp1", serialization.load_document(fixture_store.shipped_text("p1xp1"))[1]),
            ("p1", models.projective_space_model(1)),
            ("p2", serialization.load_document(fixture_store.shipped_text("p2"))[1]),
            ("p3", models.projective_space_model(3)),
            ("p4", models.projective_space_model(4)),
        ]
        from orbhodge.hodge import HodgeStructureData
        full = exactla.Subspace.full(1)
        self._line = {j: HodgeStructureData(1, 2 * j, {(j, j): full}) for j in range(5)}
        self._one = exactla.QiMatrix.from_rows([[1]])
        self.skeleton_sectors = self.skeleton_duplicates = 0

    def summary(self) -> dict:
        out = {}
        for label, o in self.fixtures:
            asm = self.orbifold.assemble_orbifold_cohomology(o)
            out[label] = {"total_dim": asm.total_dim, "sectors": len(o.sectors),
                          "duplicate_sectors": duplicate_sectors(o)}
        # a partner pair of equal age, or two self-paired sectors of one
        # age, carry identical P^d-model data
        out["skeletons"] = {"sectors": self.skeleton_sectors,
                            "duplicate_sectors": self.skeleton_duplicates}
        return out

    def skeleton(self, plan, n):
        from orbhodge.orbifold import OrbifoldData, SectorData
        sectors = []
        for sid, a, partner, d in plan:
            cohomology = {2 * j: self._line[j] for j in range(d + 1)}
            pairing = {2 * j: self._one for j in range(d + 1)}
            actions = [{2 * j: self._one for j in range(d)}]
            sectors.append(SectorData(sid, a, partner, d, cohomology, pairing, actions))
        return OrbifoldData(n, 1, sectors)

    def _item(self, label, o, coeffs, samples, expected, inputs, facts):
        orb = self.orbifold

        def call():
            return (orb.validate_dims(o).verdict(), orb.hlc_check(o).verdict(),
                    orb.orbifold_hard_lefschetz(o, coeffs).verdict(),
                    orb.check_primitive_polarizations(o, coeffs).verdict(),
                    orb.check_total_pmhs(o, coeffs).verdict(),
                    orb.check_kaehler_orbit(o, samples).verdict())
        return Item(label, call, lambda got: check_verdicts(got, expected),
                    (inputs, coeffs, samples, expected), facts)

    def round(self, seed, r):
        rng = round_rng(self.name, seed, r)
        gauss = self.exactla.GaussRational
        items = []
        for label, o in [f for f in self.fixtures for _ in range(self.COPIES[f[0]])
                         if r == 0 or f[0] != "kummer"]:
            k = o.kaehler_basis_size
            coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)]
            samples = [tuple(gauss(*upper_half_plane_point(rng)) for _ in range(k))]
            # the theorem: every check passes for a Kaehler class on these
            items.append(self._item(label, o, coeffs, samples, ("pass",) * 6, label, {}))
        for i in range(self.SKELETONS):
            broken = i % 2 == 1
            # symmetric skeletons with n >= 3 take seconds each; n = 2 keeps
            # the round near the run length
            n = (3, 4)[i // 2 % 2] if broken else 2
            plan = skeleton_plan(rng, n, broken)
            o = self.skeleton(plan, n)
            ages = {sid: a for sid, a, _, _ in plan}
            holds = all(a == ages[partner] for _, a, partner, _ in plan)
            # dims hold by construction; hard Lefschetz holds iff the ages
            # are symmetric, and the remaining checks are gated on that
            v = "pass" if holds else "fail"
            coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3))]
            samples = [(gauss(*upper_half_plane_point(rng)),)]
            self.skeleton_sectors += len(plan)
            self.skeleton_duplicates += duplicate_sectors(o)
            items.append(self._item(f"skeleton{'-broken' if broken else ''}-n{n}", o, coeffs,
                                    samples, ("pass", v, v, v, v, v), plan,
                                    {"skeleton_sectors": len(plan),
                                     "skeleton_total_dim": sum(d + 1 for *_, d in plan)}))
        return items


# ------------------------------------------------------------------- toric

SEG = ((1,), (-1,))
TRI = ((1, 0), (0, 1), (-1, -1))
TRI_DUAL = ((2, -1), (-1, 2), (-1, -1))
SQUARE = ((1, 1), (1, -1), (-1, 1), (-1, -1))
DIAMOND = ((1, 0), (-1, 0), (0, 1), (0, -1))
HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
HEXAGON_DUAL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

# base polygons and their polars ({y : <y, x> >= -1 on the polygon})
BASES = {"S": (SEG, SEG), "T": (TRI, TRI_DUAL), "T*": (TRI_DUAL, TRI),
         "Q": (SQUARE, DIAMOND), "H": (HEXAGON, HEXAGON_DUAL)}


def product(a, b):
    return tuple(x + y for x in a for y in b)


def free_sum(a, b):
    za, zb = (0,) * len(a[0]), (0,) * len(b[0])
    return tuple(x + zb for x in a) + tuple(za + y for y in b)


def shape(expr):
    """(vertices, polar vertices) of a product/free-sum expression.

    The polar of P x Q is P* (+) Q* and the polar of P (+) Q is P* x Q*.
    """
    if isinstance(expr, str):
        return BASES[expr]
    op, a, b = expr
    (va, da), (vb, db) = shape(a), shape(b)
    if op == "x":
        return product(va, vb), free_sum(da, db)
    return free_sum(va, vb), product(da, db)


E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# (label, product/free-sum expression or fixture vertex list, hlc verdict,
# candidate count).  Verdict and count are invariant under unimodular maps.
# The fixtures' are the ones acceptance criterion 2 states; the cube's and
# the cross-polytope's follow from the lattice points of the cross-polytope
# (none inside a face) and of the 4-cube (one inside each of its 32 edges and
# 24 squares); the rest were read off the unmoved polytopes.
THREE_DIM = (
    ("SxSxS", ("x", ("x", "S", "S"), "S"), "holds_with_caveat", 0),
    ("S+S+S", ("+", ("+", "S", "S"), "S"), "holds", 12),
    ("TxS", ("x", "T", "S"), "holds", 6),
    ("T*xS", ("x", "T*", "S"), "holds_with_caveat", 0),
    ("T+S", ("+", "T", "S"), "holds", 15),
    ("Q+S", ("+", "Q", "S"), "holds", 4),
    ("HxS", ("x", "H", "S"), "holds_with_caveat", 0),
    ("H+S", ("+", "H", "S"), "holds", 6),
)
FOUR_DIM = (
    ("TxT", ("x", "T", "T"), "holds", 12),
    ("TxT*", ("x", "T", "T*"), "holds", 6),
    ("T+T", ("+", "T", "T"), "fails", 78),
    ("TxQ", ("x", "T", "Q"), "holds", 6),
    ("cube4", ("x", "Q", "Q"), "holds_with_caveat", 0),
    ("cross4", ("+", ("+", ("+", "S", "S"), "S"), "S"), "fails", 56),
    ("p11226", "P11226_VERTICES", "holds", 1),
    ("p11133", "P11133_VERTICES", "fails", 1),
)
FIXTURE_DUALS = {"P11226_VERTICES": E4 + ((-1, -2, -2, -6),),
                 "P11133_VERTICES": E4 + ((-1, -1, -3, -3),)}


def unimodular_map(rng, n):
    """A seeded unimodular map g: a signed permutation, after one +-1 shear
    in dimension 4.  A shear moves the bounding boxes that the lattice-point
    scans walk, and with it the cost of a 3-dim item by up to a third from
    map to map; the 4-dim items vary about a tenth, and their shear makes
    g^-T differ from g, so the check tests the polar rule for real."""
    g = random_unimodular(rng, n, 1 if n == 4 else 0, (-1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign * x for x in g[p]] for sign, p in zip(signs, perm)]


def apply_int(g, v):
    return tuple(sum(Fraction(a) * b for a, b in zip(row, v)) for row in g)


def check_toric(got, want) -> Optional[str]:
    dual, reflexive, verdict, count = got
    want_dual, want_verdict, want_count = want
    if dual != want_dual:
        return "dual vertices differ from g^-T P*"
    if not reflexive:
        return "reflexive polytope reported as not reflexive"
    if (verdict, count) != (want_verdict, want_count):
        return f"hlc {verdict}/{count} != expected {want_verdict}/{want_count}"
    return None


class Toric:
    """One round: every 4-dim menu polytope once and each 3-dim one
    THREE_DIM_COPIES times, each copy moved by its own seeded map g.  The
    cheap 3-dim copies give the round enough items for a median and a tail;
    the cross-polytope alone is half the round."""

    name = "toric"
    min_rounds = 1
    min_items = 40
    # Item classes by cost: TxS, T*xS, T+S < SxSxS, p11133 < S+S+S, Q+S <
    # HxS, TxT, TxT* < H+S, T+T, TxQ < cube4 < cross4 (p11226 varies with
    # its map between the second and fourth class).  With these counts the
    # median item of a round is the middle of the S+S+S and Q+S copies and
    # the tail item the middle of the HxS class, never the edge between
    # two classes.
    THREE_DIM_COPIES = {"SxSxS": 5, "S+S+S": 5, "TxS": 3, "T*xS": 3, "T+S": 3, "Q+S": 5,
                        "HxS": 5, "H+S": 3}

    def __init__(self):
        from orbhodge import models, toric
        self.toric = toric
        self.models = models

    def base(self, expr):
        if isinstance(expr, str) and expr in FIXTURE_DUALS:
            return tuple(getattr(self.models, expr)), FIXTURE_DUALS[expr]
        return shape(expr)

    def summary(self) -> dict:
        return {label: {"dim": len(self.base(e)[0][0]), "vertices": len(self.base(e)[0]),
                        "dual_vertices": len(self.base(e)[1])}
                for label, e, _, _ in THREE_DIM + FOUR_DIM}

    def round(self, seed, r):
        rng = round_rng(self.name, seed, r)
        tor = self.toric
        items = []
        menu = [e for e in THREE_DIM for _ in range(self.THREE_DIM_COPIES[e[0]])]
        for label, expr, verdict, count in menu + list(FOUR_DIM):
            verts, dual = self.base(expr)
            n = len(verts[0])
            g = unimodular_map(rng, n)
            g_inv_t = [list(col) for col in zip(*frac_inverse(g))]
            moved = [apply_int(g, v) for v in verts]
            want = ({apply_int(g_inv_t, v) for v in dual}, verdict, count)

            def call(moved=moved, n=n):
                p = tor.LatticePolytope(n, moved)
                d = tor.polar_dual(p)
                reflexive = tor.is_reflexive(p)
                h = tor.hlc_verdict(p)
                return set(d.vertices), reflexive, h.verdict, len(h.candidates)
            items.append(Item(label, call, lambda got, want=want: check_toric(got, want),
                              (moved, want),
                              {"vertices": len(verts), "dual_vertices": len(dual),
                               "input_bits": entry_bits(x for v in moved for x in v)}))
        return items


# --------------------------------------------------------------------- cli

INVALID_LINE = re.compile(r"^invalid input at \$[^:]*: ", re.M)


def gauss_text(re_part, im_part):
    return f"{re_part}+{im_part}i" if re_part else f"{im_part}i"


def check_cli(got, want) -> Optional[str]:
    code, out, err = got
    want_code, want_json = want
    if code != want_code:
        return f"exit {code} != {want_code}: {err.strip()[:200]}"
    if want_json is None:  # malformed input: exit 2 with a JSON path on stderr
        return None if INVALID_LINE.search(err) else f"no JSON path on stderr: {err[:200]}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    for key, value in want_json.items():
        got_value = doc.get(key)
        if key == "dual_vertices":
            got_value = {tuple(Fraction(x) for x in v) for v in got_value or []}
        if got_value != value:
            return f"{key} = {doc.get(key)!r}, expected {value!r}"
    return None


class Cli:
    """One round: every subcommand on every shipped fixture it accepts
    (Kummer aside), seeded ages, and malformed documents that must exit 2.
    Each item is one `python -m orbhodge.cli ... --json` process."""

    name = "cli"
    min_rounds = 3
    min_items = 60

    def __init__(self, root, workdir, launcher=None):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.prefix = [sys.executable] + ([launcher] if launcher else ["-m", "orbhodge.cli"])
        from orbhodge import fixture_store
        self.texts = {name: fixture_store.shipped_text(name)
                      for name in ("square", "p2", "torus_h1")}

    def summary(self) -> dict:
        return {"fixtures": "square p11226 p11133 torus_h1 p1 p1_negQ p2 p1xp1",
                "malformed_per_round": 3}

    def commands(self, seed, r):
        """[(argv, (exit code, expected JSON fields or None), files to write)]"""
        rng = round_rng(self.name, seed, r)
        frac_set = lambda vs: {tuple(Fraction(x) for x in v) for v in vs}  # noqa: E731
        cmds = [
            (["dual", "square"], (0, {"verdict": "pass", "dual_vertices": frac_set(DIAMOND)})),
            (["dual", "p11226"], (0, {"verdict": "pass", "dual_vertices":
                                      frac_set(FIXTURE_DUALS["P11226_VERTICES"])})),
            (["dual", "p11133"], (0, {"verdict": "pass", "dual_vertices":
                                      frac_set(FIXTURE_DUALS["P11133_VERTICES"])})),
            (["hlc", "square"], (0, {"condition": "holds_with_caveat"})),
            (["hlc", "p11226"], (0, {"condition": "holds"})),
            (["hlc", "p11133"], (1, {"condition": "fails"})),
            (["check-hs", "torus_h1"], (0, {"verdict": "pass"})),
        ]

        def samples(k):
            # one sample point; "=" keeps a leading minus from reading as an option
            return "--samples=" + ",".join(gauss_text(*upper_half_plane_point(rng))
                                           for _ in range(k))

        def coeffs(k):
            return [str(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for _ in range(k)]

        # p1_negQ's flipped form breaks graded polarization at every sample
        cmds += [
            (["check-pmhs", "p1", samples(1)], (0, {"verdict": "pass"})),
            (["check-pmhs", "p1_negQ", samples(1)], (1, {"verdict": "fail"})),
            (["check-orbifold", "p2", "--coeffs", *coeffs(1)], (0, {"verdict": "pass"})),
            (["check-orbifold", "p1xp1", "--coeffs", *coeffs(2)], (0, {"verdict": "pass"})),
            (["orbit", "p2", samples(1)], (0, {"verdict": "pass"})),
            (["orbit", "p1xp1", samples(2)], (0, {"verdict": "pass"})),
            (["orbit", "p1", samples(1)], (0, {"verdict": "pass"})),
            (["orbit", "p1_negQ", samples(1)], (1, {"verdict": "fail"})),
        ]
        for _ in range(2):
            order = rng.randint(2, 12)
            exps = [rng.randrange(order) for _ in range(rng.randint(1, 4))]
            a = sum((Fraction(e, order) for e in exps), Fraction(0))
            age_json = int(a) if a.denominator == 1 else str(a)
            cmds.append((["age", "--order", str(order), "--exponents", ",".join(map(str, exps))],
                         (0, {"age": age_json, "sl": sum(exps) % order == 0})))
        return [(argv, want, None) for argv, want in cmds] + self.malformed(rng, r)

    def malformed(self, rng, r):
        """Three broken documents: cut-off JSON, a polytope vertex of the
        wrong length, an orbifold with a field of the wrong type."""
        out = []
        text = self.texts["torus_h1"]
        cut = rng.randrange(1, text.rindex("}"))
        out.append((["check-hs"], text[:cut]))
        square = json.loads(self.texts["square"])
        square["vertices"][rng.randrange(len(square["vertices"]))].append(rng.randint(-3, 3))
        out.append((["dual"], json.dumps(square)))
        p2 = json.loads(self.texts["p2"])
        p2[rng.choice(["n", "kaehler_basis_size"])] = rng.choice(["two", None, [2]])
        out.append((["check-orbifold"], json.dumps(p2)))
        cmds = []
        for k, (argv, doc) in enumerate(out):
            path = os.path.join(self.workdir, f"bad{r}_{k}.json")
            cmds.append((argv + [path], (2, None), (path, doc)))
        return cmds

    def round(self, seed, r):
        items = []
        for argv, want, file in self.commands(seed, r):
            if file is not None:
                with open(file[0], "w") as fh:
                    fh.write(file[1])
            full = self.prefix + argv + ["--json"]

            def call(full=full):
                p = subprocess.run(full, cwd=self.root, env=self.env, capture_output=True,
                                   text=True, timeout=170)
                return p.returncode, p.stdout, p.stderr
            label = f"{argv[0]} malformed" if file else " ".join(
                a for a in argv[:2] if not a.startswith("-"))
            items.append(Item(label, call,
                              lambda got, want=want: check_cli(got, want),
                              (argv, want, file and file[1])))
        return items


WORKLOADS = {w.name: w for w in (Nilpotent, Orbifold, Toric, Cli)}
