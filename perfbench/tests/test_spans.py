import threading

import pytest

import spans
from spans import REPLICATE, Recorder, covered, layer_metrics, self_times


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_of_nested_spans_subtracts_children_and_rollups():
    spans_ = [
        [0, "variance.eta2_qn", None, 1, 0.0, 10.0, None],
        [1, "covariance.covariance_lags", 0, 1, 2.0, 5.0, None],
        [2, "quadrature.product_integral", 1, 1, 3.0, 4.0, None],
    ]
    rollups = {("kernels.eval", 0, 1): [3, 1.5, 30], ("kernels.eval", 2, 1): [2, 0.25, 8]}
    own = self_times(spans_, rollups)
    assert own == pytest.approx({0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0 - 0.25})


def test_self_time_with_children_on_two_threads_counts_their_union():
    spans_ = [
        [0, "montecarlo.run_replicates", None, 1, 0.0, 10.0, {"replicates": 3, "threads": 2}],
        [1, REPLICATE, 0, 2, 1.0, 6.0, None],
        [2, REPLICATE, 0, 3, 2.0, 8.0, None],
        [3, REPLICATE, 0, 2, 6.0, 9.0, None],
    ]
    own = self_times(spans_)
    assert own[0] == pytest.approx(2.0)  # the pool covers 1..9 of 0..10
    assert [own[i] for i in (1, 2, 3)] == pytest.approx([5.0, 6.0, 3.0])
    metrics = layer_metrics(spans_, {})
    assert metrics["montecarlo.busy_ratio"] == pytest.approx(14.0 / (2 * 10.0))


def test_recorder_nests_per_thread_and_takes_explicit_parents():
    rec = Recorder()
    outer = rec.begin("montecarlo.run_replicates")
    inner = rec.begin("simulate.simulate_path")
    rec.end(inner)
    seen = {}

    def worker():
        span = rec.begin(REPLICATE, parent=outer[0])
        child = rec.begin("levy.sample_increments")
        rec.leaf("kernels.eval", 0.5, 7)
        rec.end(child)
        rec.end(span)
        seen.update(span=span, child=child)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.end(outer)
    assert inner[2] == outer[0]
    assert seen["span"][2] == outer[0] and seen["child"][2] == seen["span"][0]
    assert seen["span"][3] != outer[3]
    ((key, roll),) = rec.rollups.items()
    assert key[:2] == ("kernels.eval", seen["child"][0]) and roll == [1, 0.5, 7]


def test_install_traces_public_calls_changes_no_number_and_uninstalls():
    import cmaqf
    from cmaqf import covariance, variance

    args = (cmaqf.ExponentialOU(1.0), cmaqf.FiniteSupport((0.0, 1.0, 0.5)), cmaqf.CompoundPoissonNormal(1.0, 1.0), 1.0)
    originals = (variance.eta2_qn, cmaqf.eta2_qn, covariance.covariance_lags, cmaqf.ExponentialOU.eval)
    covariance._cached_product.cache_clear()
    plain = cmaqf.eta2_qn(*args)
    covariance._cached_product.cache_clear()
    rec = Recorder()
    installed = spans.install(rec)
    try:
        assert cmaqf.eta2_qn is variance.eta2_qn is not originals[0]
        traced = cmaqf.eta2_qn(*args)
    finally:
        installed.remove()
    assert (variance.eta2_qn, cmaqf.eta2_qn, covariance.covariance_lags, cmaqf.ExponentialOU.eval) == originals
    assert (traced.eta2, traced.eta2_alt) == (plain.eta2, plain.eta2_alt)
    names = {s[1] for s in rec.spans}
    assert {"variance.eta2_qn", "conditions.check_conditions", "covariance.b_star_gamma",
            "covariance.covariance_lags", "quadrature.product_integral", "quadrature.phase_integral"} <= names
    assert all(s[5] is not None for s in rec.spans)
    metrics = layer_metrics(rec.spans, rec.rollups)
    assert metrics["quadrature.product_integral_calls"] > 0 and metrics["kernels.eval_points"] > 0


def test_layer_metrics_of_a_small_traced_experiment():
    import cmaqf

    cfg = cmaqf.ExperimentConfig(
        statistic="qn", kernel=cmaqf.ExponentialOU(1.0), model=cmaqf.CompoundPoissonNormal(1.0, 1.0),
        b=cmaqf.FiniteSupport((0.0, 1.0)), delta=1.0, n=200, replicates=6, fine_steps=8, seed=3,
    )
    plain = cmaqf.run_experiment(cfg, threads=2)
    rec = Recorder()
    installed = spans.install(rec)
    try:
        traced = cmaqf.run_experiment(cfg, threads=2)
    finally:
        installed.remove()
    assert (traced.statistics == plain.statistics).all()
    m = layer_metrics(rec.spans, rec.rollups)
    assert set(m) | {"trace.overhead_s"} == set(spans.PER_LAYER)
    horizon = 64  # resolve_horizon's window for an exponential kernel, in units of delta
    weights = horizon * 8 + 1
    count = (cfg.n - 1 + horizon) * 8 + 1
    assert m["levy.increments"] == 6 * count
    assert m["simulate.conv_points"] == 6 * (count + weights - 1)
    assert m["simulate.kept_ratio"] == pytest.approx(cfg.n / (count + weights - 1))
    assert m["simulate.quad_calls_per_replicate"] == 2.0
    for key in ("kernels.self_share", "quadrature.self_share", "levy.replicate_share", "montecarlo.busy_ratio"):
        assert 0.0 < m[key] <= 1.0
