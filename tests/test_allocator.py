import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from omniprefill.allocator import allocate
from omniprefill.core import (
    AUDIO,
    VISUAL,
    EngineError,
    InfeasibleBudgetError,
    WindowLayout,
)
from omniprefill.relevance import softmax


def layout(n_v, n_a):
    return WindowLayout(n_v=np.asarray(n_v), n_a=np.asarray(n_a))


HALVES = ([0.5, 0.5], [0.5, 0.5])


class TestWorkedExample:
    def test_two_window_plan(self):
        # capacities (4,4)/(2,2), half retention, visual relevance skewed to
        # window 0: real budgets (3.9, 2.1) integerize to (4, 2) with the
        # intra-window split favoring visual in window 0
        plan = allocate([0.8, 0.2], [0.5, 0.5], 0.5, 0.5,
                        layout([4, 4], [2, 2]))
        assert plan.b.tolist() == [4, 2]
        assert plan.b_v.tolist() == [3, 1]
        assert plan.b_a.tolist() == [1, 1]
        assert plan.totals == (4, 2, 6)

    def test_real_budget_identity(self):
        # pre-rounding window budgets follow the combined share exactly:
        # both modalities fill both windows, so each window weighs the
        # mean of s_v = (0.8, 0.2) and s_a = (0.5, 0.5)
        s = np.array([0.65, 0.35])
        total = 0.5 * 8 + 0.5 * 4
        b_real = total * s / s.sum()
        assert b_real.tolist() == pytest.approx([3.9, 2.1], abs=1e-12)


class TestUniformRelevance:
    def test_equal_split(self):
        plan = allocate([0.25] * 4, [0.25] * 4, 0.4, 0.8,
                        layout([10] * 4, [5] * 4))
        assert plan.b.tolist() == [8, 8, 8, 8]
        # split ratio equals r_v*N_v/(r_v*N_v + r_a*N_a) in every window
        want_v = 0.4 * 40 / (0.4 * 40 + 0.8 * 20)
        for t in range(4):
            assert plan.b_v[t] / plan.b[t] == pytest.approx(want_v, abs=0.13)


class TestDegenerateModalities:
    def test_audio_absent(self):
        plan = allocate([0.7, 0.3], [0.0, 0.0], 0.5, 0.5,
                        layout([6, 6], [0, 0]))
        assert plan.b_a.tolist() == [0, 0]
        assert plan.b_v.tolist() == plan.b.tolist()
        assert int(plan.b.sum()) == 6

    def test_visual_absent(self):
        plan = allocate([0.0, 0.0], [0.4, 0.6], 0.3, 0.5,
                        layout([0, 0], [10, 10]))
        assert plan.b_v.tolist() == [0, 0]
        assert int(plan.b.sum()) == 10


class TestConservationAndCaps:
    def test_capped_window_redistributes(self):
        # window 0 wants nearly everything but can hold only 3 tokens; the
        # overflow must land in the other windows
        plan = allocate([0.90, 0.05, 0.05], [1 / 3] * 3, 0.8, 0.5,
                        layout([3, 20, 20], [2, 2, 2]))
        target = round(0.8 * 43 + 0.5 * 6)
        assert int(plan.b.sum()) == target
        assert plan.b_v[0] <= 3 and plan.b_a[0] <= 2

    def test_infeasible_total(self):
        lay = layout([2, 2], [1, 1])
        with pytest.raises(InfeasibleBudgetError):
            allocate(*HALVES, 0.9, 0.9, lay, totals=(40, 10))

    def test_original_totals_drive_budget(self):
        # totals reflect the original stream, not the already-shrunk layout
        plan = allocate(*HALVES, 0.25, 0.5, layout([50, 50], [10, 10]),
                        totals=(288, 40))
        assert int(plan.b.sum()) == round(0.25 * 288 + 0.5 * 40)

    def test_zero_budget(self):
        plan = allocate(*HALVES, 0.0, 0.0, layout([4, 4], [2, 2]))
        assert plan.b.tolist() == [0, 0]

    def test_random_draws_conserve(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            T = int(rng.integers(1, 7))
            n_v = rng.integers(0, 30, size=T)
            n_a = rng.integers(0, 10, size=T)
            if n_v.sum() + n_a.sum() == 0:
                continue
            r_v, r_a = rng.uniform(0, 1, size=2)
            raw_v = rng.random(T) * (n_v > 0)
            raw_a = rng.random(T) * (n_a > 0)
            s_v = raw_v / raw_v.sum() if raw_v.sum() else raw_v
            s_a = raw_a / raw_a.sum() if raw_a.sum() else raw_a
            plan = allocate(s_v, s_a, float(r_v), float(r_a),
                            layout(n_v, n_a))
            target = round(float(r_v) * n_v.sum() + float(r_a) * n_a.sum())
            assert int(plan.b.sum()) == target, trial
            assert np.all(plan.b_v <= n_v) and np.all(plan.b_a <= n_a), trial
            assert np.all(plan.b == plan.b_v + plan.b_a), trial


class TestMonotonicity:
    def test_more_relevance_never_less_budget(self):
        lay = layout([50, 50, 50], [10, 10, 10])
        b_lo = allocate([0.2, 0.4, 0.4], [1 / 3] * 3, 0.3, 0.5, lay).b[0]
        b_hi = allocate([0.5, 0.25, 0.25], [1 / 3] * 3, 0.3, 0.5, lay).b[0]
        assert b_hi >= b_lo


class TestCrossModalShift:
    def test_visual_total_can_exceed_its_nominal_share(self):
        # heavy visual relevance pulls combined budget into visual tokens
        # past r_v*N_v; only the combined total is pinned
        lay = layout([100, 100], [100, 100])
        # tilt: score mass inside each window is visual-heavy
        plan = allocate(np.array([0.5, 0.5]) * 0.98,
                        np.array([0.5, 0.5]) * 0.02, 0.3, 0.3, lay)
        assert int(plan.b_v.sum()) > round(0.3 * 200)
        assert int(plan.b.sum()) == round(0.3 * 400)


class TestInputDomain:
    @pytest.mark.parametrize("totals, shown", [
        ((-5, 4), "-5"), ((8, -1.5), "-1.5"), ((math.nan, 1), "nan"),
        ((8, math.inf), "inf"), ((-math.inf, 4), "-inf"),
        ((10**400, 4), str(10**400)),
    ])
    def test_negative_or_non_finite_total_is_refused(self, totals, shown):
        with pytest.raises(EngineError, match=f"got {shown}$"):
            allocate(*HALVES, 0.3, 0.5, layout([4, 4], [2, 2]), totals=totals)

    @pytest.mark.parametrize("r_v, r_a", [(-0.3, 0.5), (0.3, math.nan)])
    def test_negative_or_non_finite_ratio_is_refused(self, r_v, r_a):
        with pytest.raises(EngineError, match="must be finite and non-neg"):
            allocate(*HALVES, r_v, r_a, layout([4, 4], [2, 2]))

    def test_budget_beyond_float_range_is_infeasible(self):
        with pytest.raises(InfeasibleBudgetError, match="budget inf exceeds"):
            allocate(*HALVES, 1.0, 1.0, layout([4, 4], [2, 2]),
                     totals=(1.5e308, 1.5e308))

    @pytest.mark.parametrize("s_v, s_a, window", [
        ([1e308, 1e308], [0.5, 0.5], 0),   # s_v * r_v * N_v overflows
        ([0.5, 3e307], [0.5, 6e307], 1),  # only the split's denominator does
    ])
    def test_overflowing_split_is_refused(self, s_v, s_a, window):
        # never NaN reals floored to budgets of -2**63, nor a window's
        # budget handed to one modality because its denominator overflowed
        with pytest.raises(EngineError, match=f"^window {window}: relevance "
                                              f"weights .* overflow its "
                                              f"budget split$"):
            allocate(s_v, s_a, 0.3, 0.5, layout([4, 4], [2, 2]))

    def test_weights_summing_past_float_range_are_refused(self):
        # not shares of 0 everywhere, with the budget placed by slot order
        with pytest.raises(EngineError, match="sum past the float range"):
            allocate([8e307, 8e307, 2e307], [0.0] * 3, 0.3, 0.0,
                     layout([4, 4, 4], [0, 0, 0]))

    def test_zero_totals_are_a_zero_budget(self):
        plan = allocate(*HALVES, 0.3, 0.5, layout([4, 4], [2, 2]),
                        totals=(0, 0))
        assert plan.totals == (0, 0, 0)


def reference_allocate(s_v, s_a, r_v, r_a, layout, totals=None):
    """The allocator's integerization as a sort of every slot on four keys:
    descending remainder, descending share, ascending window, visual before
    audio; later passes on the last three. A window's weight is the mean of
    s_v and s_a where it holds both modalities, the one present's weight
    where it holds one, and 0 where it holds neither. Returns (b_v, b_a,
    passes)."""
    T = layout.T
    s_v, s_a = np.asarray(s_v, dtype=float), np.asarray(s_a, dtype=float)
    has_v, has_a = layout.n_v > 0, layout.n_a > 0
    s = np.where(has_v & has_a, (s_v + s_a) / 2, s_v * has_v + s_a * has_a)
    n_v0, n_a0 = totals if totals is not None else (
        layout.total_visual, layout.total_audio)
    total_real = r_v * n_v0 + r_a * n_a0
    target = int(round(total_real))
    cap_v = layout.n_v.astype(np.int64)
    cap_a = layout.n_a.astype(np.int64)
    capacity = int(cap_v.sum() + cap_a.sum())
    if target > capacity:
        raise InfeasibleBudgetError(
            f"budget {target} exceeds remaining capacity {capacity}")
    s_sum = s.sum()
    share = s / s_sum if s_sum > 0.0 else np.full(T, 1.0 / T)
    b_real = total_real * share
    num_v = s_v * (r_v * n_v0)
    num_a = s_a * (r_a * n_a0)
    den = num_v + num_a
    spread = den > 0.0
    capacity_t = cap_v + cap_a
    bv_real = np.where(
        spread,
        b_real * num_v / np.where(spread, den, 1.0),
        np.where(capacity_t > 0,
                 b_real * cap_v / np.maximum(capacity_t, 1), 0.0),
    )
    reals = np.concatenate([bv_real, b_real - bv_real])
    caps = np.concatenate([cap_v, cap_a])
    base = np.minimum(np.floor(reals).astype(np.int64), caps)
    deficit = target - int(base.sum())
    slot_window = np.concatenate([np.arange(T), np.arange(T)])
    slot_is_audio = np.repeat([0, 1], T)
    frac = reals - np.floor(reals)
    slot_share = share[slot_window]
    order = np.lexsort((slot_is_audio, slot_window, -slot_share, -frac))
    later = None
    passes = 0
    while deficit > 0:
        open_slots = order[base[order] < caps[order]][:deficit]
        if open_slots.size == 0:
            raise InfeasibleBudgetError(
                "no spare capacity left while budget remains")
        base[open_slots] += 1
        deficit -= open_slots.size
        passes += 1
        if deficit > 0 and later is None:
            order = later = np.lexsort((slot_is_audio, slot_window,
                                        -slot_share))
    return base[:T], base[T:], passes


@st.composite
def allocate_inputs(draw):
    """Ragged layouts, a modality sometimes absent, weights from a small
    alphabet (equal and zero shares are common), ratios that often make
    every real budget whole (remainders tied at 0), small caps that bind,
    and totals either the layout's own or an original stream's, shrunk as
    the pipeline shrinks them when flooring left too few survivors."""
    T = draw(st.integers(1, 40))
    counts = st.lists(st.integers(0, 12), min_size=T, max_size=T)
    n_v, n_a = np.array(draw(counts)), np.array(draw(counts))
    weight = st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.2, 0.25, 0.5, 1.0]),
                      min_size=T, max_size=T)
    s_v, s_a = np.array(draw(weight)), np.array(draw(weight))
    absent = draw(st.sampled_from([None, VISUAL, AUDIO]))
    if absent == VISUAL:
        n_v, s_v = np.zeros(T, dtype=np.int64), np.zeros(T)
    elif absent == AUDIO:
        n_a, s_a = np.zeros(T, dtype=np.int64), np.zeros(T)
    ratio = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0])
    r_v, r_a = draw(ratio), draw(ratio)
    totals = None
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, 2, 3]))
        n_v0, n_a0 = scale * int(n_v.sum()), scale * int(n_a.sum())
        capacity = int(n_v.sum() + n_a.sum())
        nominal = r_v * n_v0 + r_a * n_a0
        if round(nominal) > capacity:
            shrink = capacity / nominal
            n_v0, n_a0 = n_v0 * shrink, n_a0 * shrink
        totals = (n_v0, n_a0)
    return s_v, s_a, r_v, r_a, layout(n_v, n_a), totals


# window 0 takes all the relevance but holds one token; the budget spills
# into zero-share slots one pass at a time
THREE_PASSES = ([1.0, 0.0], [1.0, 0.0], 0.5, 0.5, layout([1, 4], [0, 4]),
                (8, 4))

# windows 2 and 3 hold the relevance; their whole budgets of 1.5 go to
# visual slots capped at 1, so four open slots are tied at remainder 0:
# two visual of share 0, then two audio of share 0.5; the one token left
# goes to the earlier audio slot
TIED_AT_ZERO = ([0.0, 0.0, 1.0, 1.0], [0.0] * 4, 0.75, 0.0,
                layout([1, 1, 1, 1], [0, 0, 1, 1]), None)


@settings(max_examples=300, deadline=None)
@given(inputs=allocate_inputs())
@example(inputs=THREE_PASSES)
@example(inputs=TIED_AT_ZERO)
def test_integerization_matches_full_sort(inputs):
    try:
        want = reference_allocate(*inputs)
    except InfeasibleBudgetError as exc:
        with pytest.raises(InfeasibleBudgetError) as got:
            allocate(*inputs[:5], totals=inputs[5])
        assert str(got.value) == str(exc)
        return
    plan = allocate(*inputs[:5], totals=inputs[5])
    assert plan.b_v.tolist() == want[0].tolist()
    assert plan.b_a.tolist() == want[1].tolist()
    assert plan.totals == (int(want[0].sum()), int(want[1].sum()),
                           int(want[0].sum() + want[1].sum()))


def test_many_later_passes_match_the_full_sort():
    # window 0 takes all the relevance but holds one token; hundreds of
    # one-token passes over the other windows' slots, until each cap binds
    args = ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.7, 0.9,
            layout([1, 300, 2], [0, 200, 5]), None)
    want = reference_allocate(*args)
    assert want[2] > 100
    plan = allocate(*args[:5])
    assert plan.b_v.tolist() == want[0].tolist()
    assert plan.b_a.tolist() == want[1].tolist()


def test_later_passes_scale_with_slots_not_tokens():
    # 2**39 one-token passes, one per token, would not end; whole passes
    # run at once while every open slot has room for them
    plan = allocate([1.0, 0.0], [0.0, 0.0], 0.5, 0.5,
                    layout([4, 2**40], [0, 0]))
    assert plan.b_v.tolist() == [4, 2**39 - 2]
    assert plan.b_a.tolist() == [0, 0]


@pytest.mark.parametrize("passes", [2, 3])
def test_drawn_inputs_reach_later_passes(passes):
    # the drawn inputs do not stop at the first pass
    def needs(inputs):
        try:
            return reference_allocate(*inputs)[2] == passes
        except InfeasibleBudgetError:
            return False
    assert needs(find(allocate_inputs(), needs,
                      settings=settings(max_examples=5000, database=None,
                                        phases=[Phase.generate])))
    assert reference_allocate(*THREE_PASSES)[2] == 3


def test_many_windows_allocate_peak_memory():
    # T = 2,048 windows, 4,096 slots, as the many-windows benchmark
    # allocates them. The bound sits between the peak of a four-key sort
    # of every slot with about 20 slot-sized temporaries (0.52 MiB) and
    # that of partial selection with the temporaries freed as they go
    rng = np.random.default_rng(3)
    T = 2048
    s_v = softmax(rng.normal(size=T) / 0.5)
    s_a = softmax(rng.normal(size=T) / 0.5)
    lay = layout(np.full(T, 12), np.full(T, 3))
    args = (s_v, s_a, 0.35, 0.6, lay, (0.9 * 16 * T, 0.9 * 4 * T))
    want = reference_allocate(*args)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = allocate(*args[:5], totals=args[5])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert plan.b_v.tolist() == want[0].tolist()
    assert plan.b_a.tolist() == want[1].tolist()
    assert peak < 0.42 * 2**20
