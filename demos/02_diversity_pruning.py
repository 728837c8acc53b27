"""Greedy max-min diversity selection, first bare and then on a stream."""

import numpy as np

from omniprefill import (
    SynthSpec,
    greedy_maxmin,
    stage1_saliency,
    synth_generate,
    win_div_prune,
)
from omniprefill.core import RetentionSpec, WindowLayout

rng = np.random.default_rng(0)

# three tight clusters of six points each; ask for three survivors
centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
points = np.concatenate([c + 0.05 * rng.normal(size=(6, 2)) for c in centers])
picked = greedy_maxmin(points, np.ones(18), 3)
print("uniform saliency picks one token per cluster:", picked.tolist())
print("cluster of each pick:", (picked // 6).tolist())
print()

# saliency reweights distance, so a boring-but-salient token can win
weights = np.ones(18)
weights[7] = 25.0
picked = greedy_maxmin(points, weights, 3)
print(f"with token 7 boosted 25x: {picked.tolist()} (7 now survives)")
print()

# on a full stream the same selector runs once per (window, modality) group
spec = SynthSpec(seed=3, T=4, d=32, n_v=72, n_a=12, n_q=10)
stream, oracle = synth_generate(spec)
layout = WindowLayout.from_stream(stream, spec.T)
retention = RetentionSpec(r_v=0.30, r_a=0.65, lambda_=1.4, tau=0.1)

# one saliency vector per modality, each group's weights from the oracle
saliency = stage1_saliency(oracle, layout)
result = win_div_prune(stream, layout, saliency, retention)
print(f"stream of {stream.n} tokens "
      f"({stream.n_visual} visual, {stream.n_audio} audio, {stream.n_text} text)")
print(f"kept per window, visual: {result.kept_v.tolist()} "
      f"(ratio {result.kept_v.sum() / stream.n_visual:.3f}, "
      f"target {min(1.0, 1.4 * 0.30):.3f})")
print(f"kept per window, audio:  {result.kept_a.tolist()} "
      f"(ratio {result.kept_a.sum() / stream.n_audio:.3f}, "
      f"target {min(1.0, 1.4 * 0.65):.3f})")
print(f"survivors: {len(result.kept)} positions, text always intact")
