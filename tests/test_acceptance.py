"""End-to-end acceptance gate.

Ten checks, one per headline guarantee of the engine: closed-form schedule
constants, the budget identity over a parameter grid, audio-intact ratio
arithmetic against its reference table, per-step optimality of the greedy
diversity selector, conservation laws of the budget allocator, recovery of
planted relevance, the shape of a full pipeline trace, flops-ratio targets,
byte-level determinism of the container and CLI surfaces, and the layer
lengths and FLOPs cut at the paper's operating point.

Every check verifies against logic written independently in this file (or
frozen reference numbers), never against the engine's own intermediates, and
prints a single summary line on success. Stated runtime budgets are asserted
with generous slack against scheduler noise.
"""

import json
import math
import time

import numpy as np
import pytest

from omniprefill.allocator import allocate
from omniprefill.cli import main as cli_main
from omniprefill.core import (
    AUDIO,
    TEXT,
    VISUAL,
    InfeasibleBudgetError,
    InfeasibleScheduleError,
    ModelConfig,
    RetentionSpec,
    TokenStream,
    WindowLayout,
)
from omniprefill.cost import trace_flops
from omniprefill.divprune import greedy_maxmin
from omniprefill.io import read_ots, write_ots
from omniprefill.pipeline import (
    SynthSpec,
    mean_retention,
    retention_slack,
    run_pipeline,
)
from omniprefill.schedule import build_schedule, delta_oracle, solve_delta

QWEN25 = ModelConfig(layers=28, d_model=3584, d_ff=18944, n_heads=28,
                     boundaries=(16, 19, 21, 24))


def test_01_schedule_constants():
    """Closed-form C and delta at the reference operating point."""
    t0 = time.perf_counter()
    delta, c = solve_delta(QWEN25, 0.3, 1.4)
    elapsed = time.perf_counter() - t0
    for _ in range(4):  # best-of-5 to keep the timing honest but stable
        t0 = time.perf_counter()
        solve_delta(QWEN25, 0.3, 1.4)
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert c == pytest.approx(-42.759, abs=0.001), f"[FAIL] C={c}"
    assert delta == pytest.approx(0.0295, abs=0.0005), f"[FAIL] delta={delta}"
    assert elapsed < 0.001, f"[FAIL] solve_delta took {elapsed * 1e3:.3f} ms"
    print(f"[criterion 1] PASS C={c:.6f} delta={delta:.6f} "
          f"({elapsed * 1e6:.1f} us)")


def test_02_budget_identity_grid():
    """Layer-mean retention equals the target; closed form matches a
    bisection oracle; both classify infeasibility identically."""
    rng = np.random.default_rng(20260822)

    def feasible_boundaries(layers):
        # keep the late block at most 40% of the stack so a healthy share
        # of the lambda range stays feasible alongside the infeasible rows
        ll = int(rng.integers(int(np.ceil(0.6 * layers)), layers + 1))
        rest = np.sort(rng.choice(np.arange(1, ll), size=3, replace=False))
        return (int(rest[0]), int(rest[1]), int(rest[2]), ll)

    tuples = [(28, feasible_boundaries(28)) for _ in range(5)]
    tuples += [(48, feasible_boundaries(48)) for _ in range(5)]
    # the grid, then each tuple's feasibility edge lambda = L/(L_l - 1),
    # where delta is 0 in exact arithmetic and a few ulps off in floats
    points = [(float(r), float(lam), layers, bounds)
              for r in np.linspace(0.05, 0.5, 10)
              for lam in np.linspace(1.0, 2.0, 10)
              for layers, bounds in tuples]
    points += [(float(r), layers / (bounds[3] - 1), layers, bounds)
               for r in np.linspace(0.05, 0.5, 10)
               for layers, bounds in tuples]
    t0 = time.perf_counter()
    n_feasible = n_infeasible = 0
    for r, lam, layers, bounds in points:
        cfg = ModelConfig(layers=layers, d_model=1, d_ff=1,
                          n_heads=1, boundaries=bounds)
        point = f"L={layers} b={bounds} R={r:.3f} lambda={lam:.3f}"
        try:
            d_closed, _ = solve_delta(cfg, r, lam)
        except InfeasibleScheduleError:
            d_closed = None
        try:
            d_oracle = delta_oracle(cfg, r, lam)
        except InfeasibleScheduleError:
            d_oracle = None
        assert (d_closed is None) == (d_oracle is None), (
            f"[FAIL] feasibility disagreement at {point}: "
            f"closed={d_closed} oracle={d_oracle}"
        )
        if d_closed is None:
            n_infeasible += 1
            continue
        n_feasible += 1
        assert abs(d_closed - d_oracle) <= 1e-9, (
            f"[FAIL] delta mismatch at {point}: "
            f"closed={d_closed!r} oracle={d_oracle!r}"
        )
        plan = build_schedule(cfg, r, lam)
        mean = float(plan.per_layer_trr.mean())
        assert abs(mean - r) <= 1e-9, (
            f"[FAIL] layer-mean {mean!r} != {r!r} at {point}"
        )
    elapsed = time.perf_counter() - t0
    assert n_feasible > 100 and n_infeasible > 100, (
        f"[FAIL] grid too one-sided: {n_feasible} feasible, "
        f"{n_infeasible} infeasible"
    )
    assert elapsed < 1.0, f"[FAIL] grid took {elapsed:.2f} s"
    print(f"[criterion 2] PASS {n_feasible} feasible + {n_infeasible} "
          f"infeasible grid points agree ({elapsed:.2f} s)")


# A continuous visual ratio below this is reported "--" even when it is
# non-negative: the whole reduction would fall on a sliver of the visual
# tokens.
PRACTICAL_FLOOR = 0.05


def overall_ratio(r_v, r_a, n_v, n_a):
    """Overall non-text retention implied by per-modality ratios:
    (r_v*N_v + r_a*N_a) / (N_v + N_a)."""
    return (r_v * n_v + r_a * n_a) / (n_v + n_a)


def audio_intact_rv(r, n_v, n_a):
    """The continuous visual ratio that meets overall ratio r with audio
    untouched: r_v solving r*(N_v+N_a) = r_v*N_v + 1.0*N_a, the inverse of
    overall_ratio at r_a = 1. Negative when audio alone overshoots r."""
    return (r * (n_v + n_a) - n_a) / n_v


def audio_intact_cell(r, n_v, n_a):
    """One cell of the audio-intact table: the fewest visual tokens that
    meet r, ceil(r_v*N_v), as a whole percentage of N_v, or "--" when r_v
    is negative or below the practical floor."""
    r_v = audio_intact_rv(r, n_v, n_a)
    if r_v < PRACTICAL_FLOOR:
        return "--"
    # 1e-9 keeps float noise just above an integer from adding a token
    return round(100 * math.ceil(r_v * n_v - 1e-9) / n_v)


class TestRatioArithmetic:
    def test_overall_ratio(self):
        assert overall_ratio(0.30, 0.65, 288, 50) == pytest.approx(118.9 / 338)

    def test_audio_intact_inverts_overall(self):
        for r_v in (0.1, 0.24, 0.5):
            r = overall_ratio(r_v, 1.0, 3 * 288, 3 * 50)
            assert audio_intact_rv(r, 3 * 288, 3 * 50) == pytest.approx(
                r_v, abs=1e-12)

    def test_negative_is_infeasible(self):
        assert audio_intact_rv(0.10, 288, 50) < 0
        assert audio_intact_cell(0.10, 288, 50) == "--"

    def test_practical_floor(self):
        # positive but below the reporting floor
        assert 0 < audio_intact_rv(0.15, 288, 50) < PRACTICAL_FLOOR
        assert audio_intact_cell(0.15, 288, 50) == "--"

    def test_no_audio_passthrough(self):
        assert audio_intact_rv(0.4, 20, 0) == pytest.approx(0.4)


def test_03_audio_intact_reference_table():
    """Visual percentages for audio-intact budgeting, against the published
    reference figures for two per-window layouts ("--" marks cells whose
    visual ratio is negative or below the practical floor).

    The table counts whole tokens: a window keeps the fewest visual tokens
    that meet the target, ceil(r_v*N_v), and prints them as a percentage
    of N_v (288/26 at R=0.15: r_v*288 = 21.1 keeps 22 tokens, 7.64%,
    printed 8)."""
    reference = {
        (50, 0.35): 24, (50, 0.25): 12, (50, 0.15): "--", (50, 0.10): "--",
        (26, 0.35): 29, (26, 0.25): 18, (26, 0.15): 8, (26, 0.10): "--",
    }

    def table_pass():
        return {(n_a, r): audio_intact_cell(r, 288, n_a)
                for (n_a, r) in reference}

    elapsed = float("inf")
    for _ in range(5):  # best-of-5, as in test_01
        t0 = time.perf_counter()
        computed = table_pass()
        elapsed = min(elapsed, time.perf_counter() - t0)
    table = "\n".join(
        f"  layout 288/{n_a} R={r:.2f}: computed {computed[(n_a, r)]!r}, "
        f"expected {reference[(n_a, r)]!r}"
        f"{'' if computed[(n_a, r)] == reference[(n_a, r)] else '  <-- MISMATCH'}"
        for (n_a, r) in sorted(reference, key=lambda k: (k[0], -k[1]))
    )
    assert computed == reference, f"[FAIL] audio-intact table:\n{table}"
    assert elapsed < 0.001, f"[FAIL] table took {elapsed * 1e3:.2f} ms"
    print(f"[criterion 3] PASS all 8 cells match\n{table}")


def _cosine_distance_table(points):
    norms = np.sqrt((points * points).sum(axis=1))
    zero = norms == 0.0
    unit = points / np.where(zero, 1.0, norms)[:, None]
    dist = 1.0 - unit @ unit.T
    np.clip(dist, 0.0, 2.0, out=dist)  # float spill past the true range
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    return dist


def _plain_maxmin(points, k):
    """Unweighted greedy max-min selection, written with bare loops."""
    n = points.shape[0]
    if k >= n:
        return np.arange(n)
    dist = _cosine_distance_table(points)
    picked = []
    best, best_val = 0, -np.inf
    for i in range(n):
        others = [dist[i, j] for j in range(n) if j != i]
        val = min(others) if others else 1.0
        if val > best_val:
            best, best_val = i, val
    picked.append(best)
    while len(picked) < k:
        best, best_val = -1, -np.inf
        for c in range(n):
            if c in picked:
                continue
            val = min(dist[c, s] for s in picked)
            if val > best_val:
                best, best_val = c, val
        picked.append(best)
    return np.array(picked)


def test_04_greedy_per_step_optimality():
    """Replays the selection with an exhaustive per-step argmax (every
    remaining candidate scored, first index wins ties) and requires the
    engine to return exactly that selection; uniform weights must also
    reduce to an independent unweighted implementation."""
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    instances = 0
    for trial in range(1000):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 7))
        points = rng.normal(size=(n, d))
        if n >= 2 and rng.random() < 0.15:
            points[int(rng.integers(n))] = points[int(rng.integers(n))]
        if rng.random() < 0.10:
            points[int(rng.integers(n))] = 0.0
        k = int(rng.integers(1, min(4, n) + 1))
        weights = rng.uniform(0.1, 2.0, size=n)

        got = greedy_maxmin(points, weights, k)
        assert got.shape == (min(k, n),)
        if k >= n:
            reference = list(range(n))
        else:
            dist = _cosine_distance_table(points)
            reference = []
            for step in range(k):
                values = np.full(n, -np.inf)
                for c in range(n):
                    if c in reference:
                        continue
                    if step == 0:
                        rest = np.delete(dist[c], c)
                        floor = rest.min() if rest.size else 1.0
                    else:
                        floor = min(dist[c, s] for s in reference)
                    values[c] = weights[c] * floor
                pick = int(np.argmax(values))  # first index attaining the max
                assert values[pick] == values.max()
                reference.append(pick)
        assert np.array_equal(got, np.sort(reference)), (
            f"[FAIL] trial {trial} (n={n} k={k}): engine kept "
            f"{got.tolist()}, per-step argmax replay keeps "
            f"{sorted(reference)}"
        )

        uniform = greedy_maxmin(points, np.ones(n), k)
        independent = np.sort(_plain_maxmin(points, k)[: min(k, n)])
        assert np.array_equal(uniform, independent), (
            f"[FAIL] trial {trial}: uniform weights gave {uniform.tolist()}, "
            f"unweighted reference gives {independent.tolist()}"
        )
        instances += 1
    elapsed = time.perf_counter() - t0
    assert instances >= 1000
    assert elapsed < 10.0, f"[FAIL] greedy suite took {elapsed:.2f} s"
    print(f"[criterion 4] PASS {instances} instances, per-step optimal, "
          f"uniform == unweighted ({elapsed:.2f} s)")


def test_05_allocation_conservation():
    """Integer plans conserve the rounded combined budget exactly, respect
    window capacities, and track the real-valued two-level shares."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    plans = infeasible = uncapped_checked = 0
    for trial in range(10_000):
        T = int(rng.integers(1, 9))
        n_v = rng.integers(0, 13, size=T)
        n_a = rng.integers(0, 13, size=T)
        if rng.random() < 0.10:
            n_v[:] = 0  # whole modality absent
        if rng.random() < 0.10:
            n_a[:] = 0
        if int(n_v.sum() + n_a.sum()) == 0:
            n_v[0] = 1
        layout = WindowLayout(n_v=n_v, n_a=n_a)
        s_v = np.where(n_v > 0, rng.uniform(0.0, 1.0, T), 0.0)
        s_a = np.where(n_a > 0, rng.uniform(0.0, 1.0, T), 0.0)
        both = (n_v > 0) & (n_a > 0)
        s = np.where(both, 0.5 * (s_v + s_a), s_v + s_a)
        r_v = float(rng.uniform(0.0, 1.0))
        r_a = float(rng.uniform(0.0, 1.0))
        if rng.random() < 0.30:
            scale = float(rng.uniform(1.0, 1.5))
            totals = (float(layout.total_visual) * scale,
                      float(layout.total_audio) * scale)
        else:
            totals = None

        tag = (f"trial {trial}: T={T} n_v={n_v.tolist()} n_a={n_a.tolist()} "
               f"r_v={r_v:.4f} r_a={r_a:.4f} totals={totals}")
        try:
            plan = allocate(s_v, s_a, r_v, r_a, layout, totals=totals)
        except InfeasibleBudgetError:
            infeasible += 1
            continue
        plans += 1

        n_v0, n_a0 = totals if totals is not None else (
            layout.total_visual, layout.total_audio)
        total_real = r_v * n_v0 + r_a * n_a0
        target = int(round(total_real))
        assert int(plan.b.sum()) == target == plan.totals[2], (
            f"[FAIL] conservation at {tag}: sum={int(plan.b.sum())} "
            f"target={target} totals={plan.totals}"
        )
        assert np.all(plan.b_v <= n_v) and np.all(plan.b_a <= n_a), (
            f"[FAIL] capacity cap violated at {tag}: "
            f"b_v={plan.b_v.tolist()} b_a={plan.b_a.tolist()}"
        )
        assert np.all(plan.b == plan.b_v + plan.b_a), f"[FAIL] split at {tag}"
        assert np.all(plan.b_v >= 0) and np.all(plan.b_a >= 0), (
            f"[FAIL] negative budget at {tag}"
        )

        # real-valued two-level identity, recomputed from scratch
        share = s / s.sum() if s.sum() > 0 else np.full(T, 1.0 / T)
        b_real = total_real * share
        assert abs(b_real.sum() - total_real) <= 1e-9, f"[FAIL] share at {tag}"
        num_v = s_v * (r_v * n_v0)
        num_a = s_a * (r_a * n_a0)
        den = num_v + num_a
        bv_real = np.zeros(T)
        for t in range(T):
            if den[t] > 0:
                bv_real[t] = b_real[t] * num_v[t] / den[t]
            elif n_v[t] + n_a[t] > 0:
                bv_real[t] = b_real[t] * n_v[t] / (n_v[t] + n_a[t])
        ba_real = b_real - bv_real
        # when no slot saturates, the integer plan sits within one token of
        # the real allocation (the largest-remainder property)
        if np.all(plan.b_v < n_v) and np.all(plan.b_a < n_a):
            uncapped_checked += 1
            assert np.all(np.abs(plan.b_v - bv_real) <= 1.0 + 1e-9), (
                f"[FAIL] visual drift at {tag}: plan={plan.b_v.tolist()} "
                f"real={np.round(bv_real, 4).tolist()}"
            )
            assert np.all(np.abs(plan.b_a - ba_real) <= 1.0 + 1e-9), (
                f"[FAIL] audio drift at {tag}: plan={plan.b_a.tolist()} "
                f"real={np.round(ba_real, 4).tolist()}"
            )
    elapsed = time.perf_counter() - t0
    assert plans >= 6000, f"[FAIL] only {plans} feasible plans drawn"
    assert uncapped_checked >= 500, (
        f"[FAIL] only {uncapped_checked} uncapped draws"
    )
    assert elapsed < 10.0, f"[FAIL] allocation suite took {elapsed:.2f} s"
    print(f"[criterion 5] PASS {plans} plans conserve exactly "
          f"({infeasible} infeasible draws rejected, {uncapped_checked} "
          f"uncapped drift checks, {elapsed:.2f} s)")


def test_06_planted_relevance_recovery():
    """Windows whose query logits are boosted far above the unit-variance
    background must out-rank every other window's budget at every drop
    layer, across 100 seeds."""
    planted = (1, 4)
    gain = 8.0
    assert gain >= 5.0  # background logits have standard deviation 1
    ret = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.01)
    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        spec = SynthSpec(seed=seed, T=6, d=32, n_v=48, n_a=12, n_q=8,
                         planted_windows=planted, planted_gain=gain)
        _, trace = run_pipeline(spec, QWEN25, ret)
        others = [t for t in range(6) if t not in planted]
        for layer, plan in trace.plans:
            lo = min(int(plan.b[t]) for t in planted)
            hi = max(int(plan.b[t]) for t in others)
            if lo < hi:
                failures.append(
                    f"seed {seed} layer {layer}: planted min {lo} < "
                    f"other max {hi} (b={plan.b.tolist()})"
                )
    elapsed = time.perf_counter() - t0
    assert not failures, (
        f"[FAIL] planted windows lost the budget race in "
        f"{len(failures)} cases:\n  " + "\n  ".join(failures[:10])
    )
    assert elapsed < 30.0, f"[FAIL] recovery suite took {elapsed:.2f} s"
    print(f"[criterion 6] PASS 100/100 seeds keep planted windows on top "
          f"at every drop layer ({elapsed:.2f} s)")


def test_07_trace_shape_and_realized_retention():
    """Sequence length falls exactly at the drop layers, bottoms out at the
    text count, and realized per-modality retention hits the configured
    targets within the declared rounding slack."""
    spec = SynthSpec(seed=7, T=4, d=64, n_v=288, n_a=50, n_q=64)
    ret = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)
    t0 = time.perf_counter()
    final, trace = run_pipeline(spec, QWEN25, ret)
    elapsed = time.perf_counter() - t0
    sl = trace.seq_len
    drops = [l for l in range(2, 29) if sl[l - 1] < sl[l - 2]]
    assert drops == [17, 19, 21, 24], f"[FAIL] decreases at {drops}"
    assert np.all(sl[23:] == 64), f"[FAIL] tail {sl[23:].tolist()} != text count"
    assert final.n == 64 and bool((final.modality == TEXT).all())
    realized = mean_retention(trace)
    slack = retention_slack(trace)
    for name, want in (("visual", 0.30), ("audio", 0.65)):
        got = realized[name]
        assert abs(got - want) <= slack[name], (
            f"[FAIL] {name} mean retention {got:.6f} misses {want} "
            f"by more than {slack[name]:.6f}"
        )
    assert elapsed < 1.0, f"[FAIL] pipeline took {elapsed:.2f} s"
    print(f"[criterion 7] PASS drops at {drops}, tail=64, "
          f"visual {realized['visual']:.4f}/0.30 "
          f"audio {realized['audio']:.4f}/0.65 ({elapsed:.2f} s)")


def test_08_flops_ratio_targets():
    """With non-text tokens dominating 40:1, the prefill cost ratio lands in
    the published band at the 0.35 operating point and orders strictly
    across the four standard retention levels."""
    pairs = {0.10: (0.06, 0.35), 0.15: (0.10, 0.45),
             0.25: (0.20, 0.55), 0.35: (0.30, 0.65)}
    t0 = time.perf_counter()
    ratios = {}
    for overall, (r_v, r_a) in pairs.items():
        spec = SynthSpec(seed=0, T=16, d=16, n_v=72, n_a=12, n_q=32)
        assert 16 * (72 + 12) >= 20 * 32  # non-text must dominate
        ret = RetentionSpec(r_v=r_v, r_a=r_a, lambda_=1.4, tau=0.1)
        _, trace = run_pipeline(spec, QWEN25, ret)
        ratios[overall] = trace_flops(trace, QWEN25).ratio_vs_full
    elapsed = time.perf_counter() - t0
    assert 0.28 <= ratios[0.35] <= 0.38, (
        f"[FAIL] ratio at R=0.35 is {ratios[0.35]:.4f}, outside [0.28, 0.38]"
    )
    ordered = [ratios[r] for r in (0.10, 0.15, 0.25, 0.35)]
    assert all(a < b for a, b in zip(ordered, ordered[1:])), (
        f"[FAIL] ratios not strictly increasing: {ordered}"
    )
    assert elapsed < 1.0, f"[FAIL] flops suite took {elapsed:.2f} s"
    print("[criterion 8] PASS ratios "
          + " < ".join(f"{ratios[r]:.4f}@{r}" for r in (0.10, 0.15, 0.25, 0.35))
          + f" ({elapsed:.2f} s)")


def _random_stream(rng):
    T = int(rng.integers(1, 5))
    d = int(rng.integers(1, 9))
    modality, window = [], []
    for t in range(T):
        modality += [VISUAL] * int(rng.integers(0, 6))
        modality += [AUDIO] * int(rng.integers(0, 6))
        window += [t] * (len(modality) - len(window))
    n_q = int(rng.integers(1, 6))
    modality += [TEXT] * n_q
    window += [-1] * n_q
    n = len(modality)
    return TokenStream(
        embeddings=rng.normal(size=(n, d)).astype(np.float32),
        modality=np.array(modality),
        window_id=np.array(window),
        position=np.arange(n),
    ), T


def test_09_determinism_and_round_trip(tmp_path):
    """Identical CLI runs write byte-identical traces; container
    serialization is the identity on 1,000 random streams."""
    t0 = time.perf_counter()
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "layers": 28, "d_model": 3584, "d_ff": 18944, "n_heads": 28,
        "boundaries": [16, 19, 21, 24]}))
    retention = tmp_path / "retention.json"
    retention.write_text(json.dumps({
        "ratio_visual": 0.30, "ratio_audio": 0.65, "lambda": 1.4,
        "tau": 0.1}))
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({
        "seed": 13, "windows": 4, "d": 16, "visual_per_window": 72,
        "audio_per_window": 12, "text_tokens": 10}))
    traces = []
    for name in ("a.csv", "b.csv", "c.csv"):
        path = tmp_path / name
        rc = cli_main(["run", "--config", str(model), "--spec",
                       str(retention), "--synth", str(synth),
                       "--trace", str(path)])
        assert rc == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1] == traces[2], (
        "[FAIL] repeated fixed-seed runs produced differing traces"
    )

    rng = np.random.default_rng(7)
    for trial in range(1000):
        stream, T = _random_stream(rng)
        sections = {}
        if rng.random() < 0.5:
            sections["check/flat"] = rng.normal(
                size=int(rng.integers(1, 9))).astype(np.float32)
        if rng.random() < 0.2:
            # every section is a vector; six draws, as a 2 x 3 grid took
            sections["check/grid"] = rng.normal(size=6).astype(np.float32)
        data = write_ots(stream, sections, generator={"trial": trial}, T=T)
        back, back_sections, header = read_ots(data)
        assert np.array_equal(back.embeddings, stream.embeddings), trial
        assert np.array_equal(back.modality, stream.modality), trial
        assert np.array_equal(back.window_id, stream.window_id), trial
        assert np.array_equal(back.position, stream.position), trial
        assert set(back_sections) == set(sections), trial
        for name, arr in sections.items():
            assert np.array_equal(back_sections[name], arr), (trial, name)
        again = write_ots(back, back_sections,
                          generator=header["generator"], T=header["t"])
        assert again == data, f"[FAIL] trial {trial}: re-encode differs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"[FAIL] determinism suite took {elapsed:.2f} s"
    print(f"[criterion 9] PASS 3 identical CLI traces, 1000 containers "
          f"round-trip bit-exactly ({elapsed:.2f} s)")


def _operating_point_lengths(T, n_v, n_a, n_q, r, lam, config):
    """Input length of every layer at r_v = r_a = r, from the block
    schedule's closed form and whole-token counts: stage 1 keeps
    floor(r_s*n) of each group, a drop layer the rounded schedule budget of
    the original tokens (or what survives, if fewer), and the late block
    the text alone."""
    L = config.layers
    ls, lm1, lm2, ll = config.boundaries
    e = math.e
    c = ls + 1 + e * lm1 + e * e * lm2 - (1 + e + e * e) * ll
    r_s = min(1.0, lam * r)
    delta = (L * r - r_s * (ll - 1)) / c
    kept = T * (math.floor(r_s * n_v) + math.floor(r_s * n_a))
    lengths = []
    for layer in range(1, L + 1):
        steps = (layer > ls) + (layer >= lm1) + (layer >= lm2)
        if layer >= ll:
            kept = 0
        elif steps:
            ratio = r_s - delta * (1.0, 1 + e, 1 + e + e * e)[steps - 1]
            kept = min(kept, round(ratio * T * n_v + ratio * T * n_a))
        lengths.append(kept + n_q)
    return lengths


def _v1_flops(n, config):
    d = config.d_model
    return 8 * n * d * d + 4 * n * n * d + 6 * n * d * config.d_ff


def test_10_paper_operating_point():
    """At the paper's headline point, 10% of visual and audio tokens kept
    (r_v = r_a = 0.1, lambda = 1.4, 288 visual + 50 audio tokens per
    window), each layer's length and the v1 FLOPs cut match arithmetic
    written here. The cut depends on the input's length: about the paper's
    9.3x at 16 windows, less on shorter inputs and more on longer ones."""
    ret = RetentionSpec(r_v=0.1, r_a=0.1, lambda_=1.4, tau=0.1)
    cuts = {4: "7.46", 16: "10.43", 64: "14.84"}
    t0 = time.perf_counter()
    got = {}
    for T in cuts:
        spec = SynthSpec(seed=3, T=T, d=8, n_v=288, n_a=50, n_q=64)
        _, trace = run_pipeline(spec, QWEN25, ret)
        want = _operating_point_lengths(T, 288, 50, 64, 0.1, 1.4, QWEN25)
        assert trace.seq_len.tolist() == want, (
            f"[FAIL] T={T}: engine lengths {trace.seq_len.tolist()}, "
            f"reference {want}")
        full = QWEN25.layers * _v1_flops(T * 338 + 64, QWEN25)
        cut = full / sum(_v1_flops(n, QWEN25) for n in want)
        ratio = trace_flops(trace, QWEN25).ratio_vs_full
        assert ratio == pytest.approx(1 / cut, rel=1e-12), (
            f"[FAIL] T={T}: engine FLOPs ratio {ratio}, reference {1 / cut}")
        got[T] = f"{cut:.2f}"
        if T == 16:
            assert want == [800] * 16 + [768] * 2 + [624] * 2 + [231] * 3 \
                + [64] * 5, f"[FAIL] T=16 lengths {want}"
    elapsed = time.perf_counter() - t0
    assert got == cuts, f"[FAIL] v1 FLOPs cuts {got}, expected {cuts}"
    assert elapsed < 5.0, f"[FAIL] operating point took {elapsed:.2f} s"
    print("[criterion 10] PASS v1 FLOPs cut "
          + ", ".join(f"{got[T]}x at T={T}" for T in cuts)
          + f" ({elapsed:.2f} s)")
