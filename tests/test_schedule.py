import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omniprefill.core import (ConfigError, InfeasibleScheduleError, ModelConfig,
                             RetentionSpec)
from omniprefill.pipeline import SynthSpec, run_pipeline
from omniprefill.schedule import (
    block_constant,
    block_labels,
    build_schedule,
    delta_oracle,
    shallow_ratio,
    solve_delta,
)

QWEN25 = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))
QWEN3 = ModelConfig(layers=48, d_model=2048, d_ff=6144, n_heads=16,
                    boundaries=(27, 32, 36, 40))

# Reference values, frozen after cross-checking the closed form against the
# bisection solver at 1e-12.
C_28 = -42.75857743908719
DELTA_28 = 0.029467771742288738
DELTA_28_AUDIO = 0.06384683877495893
DELTA_48 = 0.036491461876971394


class TestSolveDelta:
    def test_reference_constants(self):
        delta, c = solve_delta(QWEN25, 0.3, 1.4)
        assert c == pytest.approx(C_28, abs=1e-9)
        assert delta == pytest.approx(DELTA_28, abs=1e-12)

    def test_block_constant_formula(self):
        ls, lm1, lm2, ll = QWEN25.boundaries
        e = math.e
        want = ls + 1 + e * lm1 + e * e * lm2 - (1 + e + e * e) * ll
        assert block_constant(QWEN25) == pytest.approx(want, abs=1e-12)

    def test_audio_ratio(self):
        delta, _ = solve_delta(QWEN25, 0.65, 1.4)
        assert delta == pytest.approx(DELTA_28_AUDIO, abs=1e-12)

    def test_deeper_backbone(self):
        delta, _ = solve_delta(QWEN3, 0.35, 1.4)
        assert delta == pytest.approx(DELTA_48, abs=1e-12)

    def test_zero_budget(self):
        delta, c = solve_delta(QWEN25, 0.0, 1.4)
        assert delta == 0.0
        assert c == pytest.approx(C_28, abs=1e-9)

    def test_delta_linear_in_ratio(self):
        d1, _ = solve_delta(QWEN25, 0.2, 1.4)
        d2, _ = solve_delta(QWEN25, 0.4, 1.4)
        assert d2 / d1 == pytest.approx(2.0, abs=1e-12)

    def test_lambda_one_is_infeasible_here(self):
        # delta >= 0 requires lambda >= L/(L_l - 1) = 28/23
        with pytest.raises(InfeasibleScheduleError):
            solve_delta(QWEN25, 0.3, 1.0)

    def test_feasibility_edge_in_lambda(self):
        edge = 28 / 23
        delta, _ = solve_delta(QWEN25, 0.3, edge + 1e-9)
        assert delta >= 0.0
        with pytest.raises(InfeasibleScheduleError):
            solve_delta(QWEN25, 0.3, edge - 1e-6)

    def test_rounding_edge_is_delta_zero(self):
        # lambda = L/(L_l - 1) puts delta at 0 in exact arithmetic, and so
        # does r = (L_l - 1)/L once the shallow ratio clips at 1; the float
        # inputs sit a few ulps off, which left a delta of about -1e-17 and
        # refused feasible schedules. 1.2 lies just below 12/10: delta was
        # -1.55e-17 here
        cfg = ModelConfig(layers=12, d_model=64, d_ff=64, n_heads=1,
                          boundaries=(4, 6, 9, 11))
        assert solve_delta(cfg, 0.8, 1.2)[0] == 0.0
        for layers in range(5, 40):
            for ll in range(5, layers + 1):
                cfg = ModelConfig(layers=layers, d_model=1, d_ff=1, n_heads=1,
                                  boundaries=(1, 2, 3, ll))
                lam = layers / (ll - 1)
                edges = [((ll - 1) / layers, lam)] + [
                    (r, lam) for r in (0.1, 0.3, 0.5) if lam * r < 1.0]
                for r, lam in edges:
                    delta, _ = solve_delta(cfg, r, lam)
                    assert 0.0 <= delta <= 1e-12, (layers, ll, r, lam)
                    assert delta_oracle(cfg, r, lam) == pytest.approx(
                        delta, abs=1e-9)
                    trr = build_schedule(cfg, r, lam).per_layer_trr
                    assert trr.mean() == pytest.approx(r, abs=1e-9)

    def test_deep_subblock_floor(self):
        # large lambda pushes r_m3 below zero: hard error, never clamped
        with pytest.raises(InfeasibleScheduleError):
            solve_delta(QWEN25, 0.3, 1.5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_delta(QWEN25, -0.1, 1.4)
        with pytest.raises(ValueError):
            solve_delta(QWEN25, 1.1, 1.4)
        with pytest.raises(ValueError):
            solve_delta(QWEN25, 0.3, 0.99)

    @pytest.mark.parametrize("r, lam", [(math.nan, 1.4), (0.3, math.nan),
                                        (0.3, math.inf)])
    @pytest.mark.parametrize("solver", [solve_delta, delta_oracle])
    def test_non_finite_inputs_rejected(self, solver, r, lam):
        with pytest.raises(ValueError):
            solver(QWEN25, r, lam)


class TestDeltaOracle:
    def test_agrees_with_closed_form(self):
        delta, _ = solve_delta(QWEN25, 0.3, 1.4)
        assert delta_oracle(QWEN25, 0.3, 1.4) == pytest.approx(delta, abs=1e-9)

    def test_agreement_grid(self):
        for r in (0.05, 0.15, 0.3, 0.45, 0.6):
            for lam in (1.25, 1.3, 1.35, 1.4):
                try:
                    closed, _ = solve_delta(QWEN25, r, lam)
                except InfeasibleScheduleError:
                    with pytest.raises(InfeasibleScheduleError):
                        delta_oracle(QWEN25, r, lam)
                    continue
                assert delta_oracle(QWEN25, r, lam) == pytest.approx(
                    closed, abs=1e-9)

    def test_agreement_near_deep_floor(self):
        # r_m3 crosses zero around lambda=1.462 at R=0.3; both solvers must
        # classify each side identically once safely off the float boundary
        lo, hi = 1.4, 1.5
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            try:
                solve_delta(QWEN25, 0.3, mid)
                lo = mid
            except InfeasibleScheduleError:
                hi = mid
        closed, _ = solve_delta(QWEN25, 0.3, lo)
        assert delta_oracle(QWEN25, 0.3, lo) == pytest.approx(closed, abs=1e-9)
        with pytest.raises(InfeasibleScheduleError):
            delta_oracle(QWEN25, 0.3, hi + 1e-5)

    def test_agreement_when_shallow_ratio_clips(self):
        # lambda*R > 1 pins r_s at 1; the closed form still solves the
        # identity, to within the bisection's own tolerance
        for r, lam in ((0.75, 1.4), (0.8, 1.3), (0.72, 1.4), (0.7, 1.45)):
            closed, _ = solve_delta(QWEN25, r, lam)
            assert closed == (28 * r - 23) / C_28
            assert delta_oracle(QWEN25, r, lam) == pytest.approx(
                closed, abs=1e-12)

    def test_zero_budget(self):
        assert delta_oracle(QWEN25, 0.0, 1.4) == 0.0


class TestBuildSchedule:
    def test_subblock_ratios(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        assert plan.trr_at(1) == pytest.approx(0.42, abs=1e-12)
        assert plan.trr_at(17) == pytest.approx(0.3905322282577112, abs=1e-12)
        assert plan.trr_at(19) == pytest.approx(0.3104305198054688, abs=1e-12)
        assert plan.trr_at(21) == pytest.approx(0.09269150129121395,
                                                abs=1e-12)

    def test_decay_recurrence(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        e = math.e
        r_s, r_m1, r_m2, r_m3 = (plan.trr_at(l) for l in (1, 17, 19, 21))
        assert r_m1 == pytest.approx(r_s - plan.delta, abs=1e-12)
        assert r_m2 == pytest.approx(r_m1 - plan.delta * e, abs=1e-12)
        assert r_m3 == pytest.approx(r_m2 - plan.delta * e * e, abs=1e-12)

    def test_per_layer_shape(self):
        # 16 shallow layers, then 2/2/3-layer steps, then 5 zeros
        plan = build_schedule(QWEN25, 0.3, 1.4)
        trr = plan.per_layer_trr
        assert trr.shape == (28,)
        assert np.allclose(trr[:16], 0.42)
        assert np.allclose(trr[16:18], 0.3905322282577112)
        assert np.allclose(trr[18:20], 0.3104305198054688)
        assert np.allclose(trr[20:23], 0.09269150129121395)
        assert np.all(trr[23:] == 0.0)

    def test_budget_identity(self):
        for r in (0.1, 0.3, 0.65):
            plan = build_schedule(QWEN25, r, 1.4)
            assert plan.per_layer_trr.mean() == pytest.approx(r, abs=1e-9)

    def test_monotone_and_drop_layers(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        assert np.all(np.diff(plan.per_layer_trr) <= 0)
        assert plan.drop_layers == (17, 19, 21, 24)
        # drops are exactly the strict decreases
        trr = plan.per_layer_trr
        strict = tuple(l for l in range(2, 29) if trr[l - 1] < trr[l - 2])
        assert plan.drop_layers == strict

    def test_trr_at(self):
        plan = build_schedule(QWEN25, 0.3, 1.4)
        assert plan.trr_at(1) == plan.per_layer_trr[0]
        assert plan.trr_at(17) == plan.per_layer_trr[16]
        assert plan.trr_at(24) == 0.0
        with pytest.raises(ConfigError, match=r"^layer 0 outside \[1, 28\]$"):
            plan.trr_at(0)
        with pytest.raises(ConfigError, match=r"^layer 29 outside \[1, 28\]$"):
            plan.trr_at(29)

    def test_zero_budget_plan(self):
        plan = build_schedule(QWEN25, 0.0, 1.4)
        assert np.all(plan.per_layer_trr == 0.0)
        assert plan.drop_layers == ()

    def test_clipped_shallow_ratio(self):
        # lambda*R > 1 clips r_s to 1; the layer mean must still hit R
        plan = build_schedule(QWEN25, 0.75, 1.4)
        assert plan.trr_at(1) == 1.0
        assert plan.per_layer_trr.mean() == pytest.approx(0.75, abs=1e-9)
        # identity L*R = r_s*(L_l - 1) + delta*C still pins delta
        want_delta = (1.0 * 23 - 28 * 0.75) / -C_28
        assert plan.delta == pytest.approx(want_delta, abs=1e-9)
        # at the largest reachable mean, (L_l-1)/L, with the scale factor at
        # its feasibility edge L/(L_l-1), the plan is a step at L_l
        edge = build_schedule(QWEN25, 23 / 28, 28 / 23)
        assert edge.delta == 0.0
        assert edge.per_layer_trr.tolist() == (np.arange(1, 29) < 24).tolist()
        assert edge.drop_layers == (24,)
        # a zero numerator over the negative C is +0.0, never -0.0
        for lambda_ in (28 / 23, 1.5):
            delta, _ = solve_delta(QWEN25, 23 / 28, lambda_)
            assert math.copysign(1.0, delta) == 1.0

    def test_clipped_but_unreachable_mean(self):
        # even at full shallow retention the late block forces the mean
        # below (L_l - 1)/L = 23/28
        with pytest.raises(InfeasibleScheduleError,
                           match="0.821429, already below target 0.83"):
            build_schedule(QWEN25, 0.83, 1.3)

    def test_full_retention_is_structurally_infeasible(self):
        # the late block always zeroes non-text tokens, so a mean of 1.0
        # cannot exist for any lambda
        for lam in (1.0, 28 / 23, 1.4):
            with pytest.raises(InfeasibleScheduleError):
                build_schedule(QWEN25, 1.0, lam)

    def test_coincident_boundaries_merge_drops(self):
        cfg = ModelConfig(layers=28, d_model=64, d_ff=256, n_heads=4,
                          boundaries=(16, 17, 17, 24))
        plan = build_schedule(cfg, 0.3, 1.24)
        assert plan.drop_layers[0] == 17
        assert plan.drop_layers[-1] == 24
        assert len(plan.drop_layers) == len(set(plan.drop_layers))
        assert plan.per_layer_trr.mean() == pytest.approx(0.3, abs=1e-9)


class TestBlockLabels:
    def test_labels(self):
        labels = block_labels(QWEN25)
        assert len(labels) == 28
        assert labels[1 - 1] == "shallow"
        assert labels[16 - 1] == "shallow"
        assert labels[17 - 1] == "middle1"
        assert labels[19 - 1] == "middle2"
        assert labels[21 - 1] == "middle3"
        assert labels[23 - 1] == "middle3"
        assert labels[24 - 1] == "late"
        assert labels[28 - 1] == "late"

    def test_one_label_per_layer(self):
        cfg = ModelConfig(layers=4096, d_model=1, d_ff=1, n_heads=1,
                          boundaries=(1000, 2000, 3000, 4000))
        labels = block_labels(cfg)
        assert len(labels) == 4096
        assert labels.count("shallow") == 1000
        assert labels.count("late") == 97


class TestShallowRatio:
    def test_clips_at_one(self):
        assert shallow_ratio(0.3, 1.4) == 0.3 * 1.4
        assert shallow_ratio(0.75, 1.4) == 1.0
        assert shallow_ratio(0.0, 1.4) == 0.0

    def test_is_the_plans_first_ratio(self):
        for r in (0.0, 0.1, 0.3, 0.75):
            assert build_schedule(QWEN25, r, 1.4).trr_at(1) == shallow_ratio(
                r, 1.4)


def boundary_drop_layers(config: ModelConfig, trr: np.ndarray) -> tuple:
    """Drop layers by the boundary-set rule, an independent reference:
    of the layers that open a block after the shallow one (boundaries may
    coincide when a sub-block is empty, hence the set), those where the
    ratio strictly falls."""
    ls, lm1, lm2, ll = config.boundaries
    return tuple(l for l in sorted({ls + 1, lm1, lm2, ll})
                 if trr[l - 1] < trr[l - 2])


@st.composite
def model_configs(draw):
    """Random layer counts and boundaries, L_l = L and coinciding middle
    splits among them."""
    L = draw(st.integers(3, 64))
    ll = draw(st.just(L) | st.integers(3, L))
    ls = draw(st.integers(1, ll - 2))
    lm1 = draw(st.integers(ls + 1, ll - 1))
    lm2 = draw(st.just(lm1) | st.integers(lm1, ll - 1))
    return ModelConfig(layers=L, d_model=8, d_ff=16, n_heads=2,
                       boundaries=(ls, lm1, lm2, ll))


def feasible_plan(config, r, lambda_offset):
    """build_schedule at r and a scale factor just past the feasibility
    edge L/(L_l - 1), or None when even that is infeasible."""
    lambda_ = config.layers / (config.boundaries[3] - 1) + lambda_offset
    try:
        return build_schedule(config, r, lambda_)
    except InfeasibleScheduleError:
        return None


RATIOS = st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.65]) | st.floats(0, 1)
EDGE = ModelConfig(layers=28, d_model=8, d_ff=16, n_heads=2,
                   boundaries=(16, 19, 21, 24))


class TestDropLayersFollowTheTable:
    @settings(max_examples=400, deadline=None)
    @given(config=model_configs(), r=RATIOS,
           lambda_offset=st.sampled_from([0.0, 1e-9]) | st.floats(0, 0.6))
    @example(config=ModelConfig(layers=28, d_model=8, d_ff=16, n_heads=2,
                                boundaries=(16, 17, 17, 24)),
             r=0.3, lambda_offset=0.05)
    @example(config=ModelConfig(layers=28, d_model=8, d_ff=16, n_heads=2,
                                boundaries=(16, 19, 21, 28)),
             r=0.3, lambda_offset=0.05)
    @example(config=EDGE, r=0.0, lambda_offset=0.1)
    @example(config=EDGE, r=23 / 28, lambda_offset=0.0)
    def test_derived_drop_layers_match_the_boundary_rule(self, config, r,
                                                         lambda_offset):
        plan = feasible_plan(config, r, lambda_offset)
        assume(plan is not None)
        trr = plan.per_layer_trr
        assert plan.drop_layers == boundary_drop_layers(config, trr)

    @settings(max_examples=60, deadline=None)
    @given(config=model_configs(), r_v=RATIOS, r_a=RATIOS,
           lambda_offset=st.floats(0, 0.6))
    def test_run_acts_at_the_table_layers(self, config, r_v, r_a,
                                          lambda_offset):
        # drop layers are the union of both modalities' falls before L_l;
        # late removal is L_l, and only drop layers carry a plan
        plans = [feasible_plan(config, r, lambda_offset) for r in (r_v, r_a)]
        assume(None not in plans)
        ll = config.boundaries[3]
        drops = sorted({l for plan in plans for l in boundary_drop_layers(
            config, plan.per_layer_trr)} - {ll})
        lambda_ = config.layers / (ll - 1) + lambda_offset
        retention = RetentionSpec(r_v=r_v, r_a=r_a, lambda_=lambda_, tau=0.1)
        spec = SynthSpec(seed=4, T=3, d=4, n_v=9, n_a=4, n_q=2)
        _, trace = run_pipeline(spec, config, retention)
        assert [s.layer for s in trace.selections] == drops + [ll]
        assert [layer for layer, _ in trace.plans] == drops

    @pytest.mark.parametrize("r, lambda_, selections, plans", [
        (0.0, 1.4, [24], []),
        # the scale factor at its feasibility edge and the largest
        # reachable mean: lambda*r is exactly 1, delta exactly 0, so only
        # L_l acts
        (23 / 28, 28 / 23, [24], []),
    ], ids=["zero-retention", "clipped-edge"])
    def test_pinned_run_layers(self, r, lambda_, selections, plans):
        spec = SynthSpec(seed=3, T=4, d=8, n_v=12, n_a=5, n_q=4)
        retention = RetentionSpec(r_v=r, r_a=r, lambda_=lambda_, tau=0.1)
        _, trace = run_pipeline(spec, EDGE, retention)
        assert [s.layer for s in trace.selections] == selections
        assert [layer for layer, _ in trace.plans] == plans
        kept = 0 if r == 0.0 else 48
        assert trace.kept_v.tolist() == [kept] * 23 + [0] * 5
