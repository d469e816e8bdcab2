"""Self-tests of the benchmark: seeded generators repeat, checkers catch a
corrupted answer, and the tracer is transparent and accounts for its time.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def inputs_of(workload, seed, r=0):
    return [item.inputs for item in workload.round(seed, r)]


def test_generators_repeat_for_one_seed_and_differ_across_seeds():
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.dirname(HERE)
        makers = [workloads.Nilpotent, workloads.Orbifold, workloads.Toric,
                  lambda: workloads.Cli(root, tmp)]
        for make in makers:
            a, b = make(), make()
            assert inputs_of(a, 7) == inputs_of(b, 7)
            assert inputs_of(a, 7, 3) == inputs_of(b, 7, 3)
            assert inputs_of(a, 7) != inputs_of(a, 8)
            assert inputs_of(a, 7) != inputs_of(a, 7, 1)


def test_min_items_counts_the_items_of_the_minimum_rounds():
    with tempfile.TemporaryDirectory() as tmp:
        for w in (workloads.Nilpotent(), workloads.Orbifold(), workloads.Toric(),
                  workloads.Cli(os.path.dirname(HERE), tmp)):
            assert sum(len(w.round(3, r)) for r in range(w.min_rounds)) == w.min_items


def run_item(item):
    result = item.call()
    assert item.check(result) is None
    return result


def test_wrong_dual_vertex_and_flipped_toric_verdict_fail():
    item = next(it for it in workloads.Toric().round(1, 0) if it.label == "TxS")
    result = run_item(item)
    dual, verdict, count = item.inputs[1]
    bad = set(dual)
    v = bad.pop()
    bad.add(tuple(x + 1 for x in v))
    assert workloads.check_toric(result, (bad, verdict, count)) is not None
    assert workloads.check_toric(result, (dual, "fails", count)) is not None
    assert workloads.check_toric(result, (dual, verdict, count + 1)) is not None


def test_flipped_orbifold_verdict_fails():
    item = next(it for it in workloads.Orbifold().round(1, 0) if "broken" in it.label)
    result = run_item(item)
    expected = item.inputs[3]
    for k in range(len(expected)):
        flipped = list(expected)
        flipped[k] = "pass" if expected[k] == "fail" else "fail"
        assert workloads.check_verdicts(result, flipped) is not None


def test_wrong_weight_filtration_step_fails():
    item = next(it for it in workloads.Nilpotent().round(1, 0) if it.label == "n5")
    w = run_item(item)
    matrix, expected = item.inputs
    # a step that is neither 0 nor everything, given one vector too many
    l = next(l for l, vs in sorted(expected.items()) if 0 < len(vs) < 5)
    outside = next(v for m in sorted(expected) for v in expected[m] if v not in expected[l])
    for bad_step in (expected[l] + [outside], expected[l][:-1] + [outside]):
        assert workloads.check_weight_filtration(w, {**expected, l: bad_step}) is not None


def test_malformed_cli_document_needs_exit_2_and_a_json_path():
    ok = (2, "", "invalid input at $.vertices: vertex length disagrees\n")
    assert workloads.check_cli(ok, (2, None)) is None
    assert workloads.check_cli((2, "", "Traceback (most recent call last):\n"), (2, None))
    assert workloads.check_cli((0, '{"verdict": "pass"}', ""), (1, {"verdict": "fail"}))
    assert workloads.check_cli((1, '{"verdict": "pass"}', ""), (1, {"verdict": "fail"}))


def test_run_rounds_counts_wrong_and_raising_items():
    import worker

    items = [workloads.Item("right", lambda: 1, lambda got: None),
             workloads.Item("wrong", lambda: 2, lambda got: "expected 1"),
             workloads.Item("raises", lambda: 1 / 0, lambda got: None)]
    times, failures, rounds, *_ = worker.run_rounds([items, items])
    assert (len(times), len(failures), rounds) == (6, 4, 2)


def test_reference_samples_scale_items_and_their_pauses_are_left_out():
    import worker

    def slow_reference():
        time.sleep(0.1)
        return 0.02

    sampler = worker.SpeedSampler(slow_reference, 0.01, 0.0)

    def item():  # 0.1 s of its own, paused once by a 0.1 s sample
        sampler.sample()
        time.sleep(0.1)
    items = [workloads.Item("paused", item, lambda got: None)]
    times, failures, _, _, _, scales = worker.run_rounds([items], sampler=sampler)
    assert not failures and 0.09 < times[0] < 0.15
    assert scales == [0.5]  # the samples took twice the nominal 0.01 s
    # the samples in a span and the nearest ones before and after it count
    samples = [(0.0, 9.0), (0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (9.0, 9.0)]
    assert workloads.reference_scales([(1, 2)], samples, 1.0) == [0.5]


def test_tracer_patches_every_binding_and_returns_objects_unchanged():
    from orbhodge import exactla, hodge, mhs, orbifold, toric
    original = exactla.kernel
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for module in (exactla, mhs, hodge, orbifold, toric):
            if hasattr(module, "kernel"):
                assert module.kernel is not original
                assert module.kernel.__wrapped__ is original
        m = exactla.QiMatrix.from_rows([[1, 2], [2, 4]])
        assert exactla.kernel(m) == original(m)
        sentinel = object()
        assert tracer.wrap("exactla.rank", lambda: sentinel)() is sentinel
        assert tracer.calls["exactla.kernel"] >= 1
        assert tracer.calls["exactla.span"] >= 1  # kernel builds its result with span
    finally:
        uninstall()
    assert exactla.kernel is original and mhs.kernel is original


def test_self_times_and_bookkeeping_account_for_the_traced_wall():
    from orbhodge import toric
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        p = toric.LatticePolytope(3, workloads.shape(("x", "T", "S"))[0])
        toric.hlc_verdict(p)
        wall = time.perf_counter() - t0
    finally:
        uninstall()
    spans = sum(tracer.self_s.values())
    assert spans > 0 and tracer.bookkeeping_s > 0
    outside = wall - spans - tracer.bookkeeping_s
    assert 0 <= outside < 0.05 * wall
    # p's 5 facets, then 6 for each dual that is_reflexive and polar_dual build
    assert tracer.facets_built == 5 + 6 * 2
    assert tracer.max_entry_bits >= 1


def test_entry_bits_skip_dimensions_ranks_and_indices():
    from orbhodge import exactla
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        space = exactla.Subspace.span(24, [[1] * 24])
        assert exactla.rank(exactla.QiMatrix.identity(24)) == 24
    finally:
        uninstall()
    assert space.dim == 1
    assert tracer.max_entry_bits == 1


def test_jordan_type_reads_block_sizes_from_ranks_of_powers():
    for blocks in ([1], [3, 1], [2, 2, 1], [5, 2, 1], [4, 4], [1, 1, 1]):
        n = sum(blocks)
        n0 = [[0] * n for _ in range(n)]
        off = 0
        for s in blocks:
            for j in range(s - 1):
                n0[off + j + 1][off + j] = 1
            off += s
        assert workloads.jordan_type(n0) == blocks
    # criterion 3's lower triangular draws reach every nilpotency index
    rng = workloads.round_rng("t", 0, 0)
    assert {workloads.jordan_type(workloads.criterion3_lower(rng, 4))[0]
            for _ in range(200)} == {1, 2, 3, 4}


def test_nilpotent_inputs_build_on_every_round():
    # frac_inverse stops on a singular change of basis g; g is a signed
    # row permutation of an invertible matrix, so no round may stop
    nilpotent = workloads.Nilpotent()
    for r in range(30):
        assert len(nilpotent.round(6, r)) == 8


def test_frac_helpers_agree_with_hand_results():
    assert workloads.frac_rank([[1, 2], [2, 4]]) == 1
    g = [[2, 1], [1, 1]]
    assert workloads.frac_matmul(g, workloads.frac_inverse(g)) == [[1, 0], [0, 1]]
    assert workloads.same_span([[1, 1]], [[Fraction(1, 2), Fraction(1, 2)]])


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main(["-q", __file__]))
