"""Two-level budget allocation at a single drop layer.

Window budgets follow relevance; inside a window the split between visual
and audio follows the product of each modality's relevance and its share of
the retention budget. Only the combined total is conserved, so budget can
drift toward whichever modality the query actually cares about.
"""

import numpy as np

from omniprefill import WindowLayout, allocate

layout = WindowLayout(n_v=np.array([4, 4]), n_a=np.array([2, 2]))

# window 0 carries most of the visual relevance
s_v = np.array([0.8, 0.2])
s_a = np.array([0.5, 0.5])

plan = allocate(s_v, s_a, 0.5, 0.5, layout)
print("capacities  visual", layout.n_v.tolist(), " audio", layout.n_a.tolist())
print("relevance   visual", s_v.tolist(), " audio", s_a.tolist())
print()
print("window budgets b   :", plan.b.tolist())
print("  visual slice b_v :", plan.b_v.tolist())
print("  audio slice  b_a :", plan.b_a.tolist())
print("totals (v, a, all) :", plan.totals)
print()

# the real-valued budgets before integerization: 6 tokens split 65/35 by
# the window weights, the mean of s_v and s_a where both modalities are
# present
total = 0.5 * 8 + 0.5 * 4
s = 0.5 * (s_v + s_a)
print("pre-rounding window budgets:", (total * s / s.sum()).tolist())
print()

# push all relevance into window 1 and watch the budget follow it
plan2 = allocate(np.array([0.02, 0.98]), np.array([0.02, 0.98]), 0.5, 0.5,
                 layout)
print("relevance concentrated in window 1 ->", plan2.b.tolist(),
      "(capacity caps window 1 at", int(layout.n_v[1] + layout.n_a[1]),
      "tokens, remainder spills back)")

# cross-modal shift: a purely visual query starves the audio slice
plan3 = allocate(np.array([0.9, 0.9]), np.array([0.0, 0.0]), 0.5, 0.5,
                 layout)
print("visual-only relevance: b_v =", plan3.b_v.tolist(),
      "b_a =", plan3.b_a.tolist(),
      "- combined total still", int(plan3.b.sum()))
