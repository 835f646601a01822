"""Statistical baselines and a missing-ratio sensitivity sweep.

Run:  python demos/05_baselines_and_sweep.py
"""

import numpy as np

from maginet import data, evaluation
from maginet.model import ModelConfig
from maginet.training import TrainConfig

graph = data.synthetic_graph(10, extra_edges=3, seed=11)
series = data.generate_synthetic(10, 1152, graph, seed=11)

# Mean imputation fills a node's hidden slots with its observed average;
# KNN borrows from the nearest nodes (RMS distance over co-observed steps).
windows = data.make_windows(series, data.draw_eval_mask(series, 0.5, 11), 12, 12)
w = windows[0]
mean_hat = evaluation.mean_baseline(w)
knn_hat = evaluation.knn_baseline(w, k=3)
hidden = w.eval_mask == 1.0
print(f"window 0: {int(hidden.sum())} scored entries")
print(f"  mean baseline RMSE: {evaluation.rmse(mean_hat, w.ground_truth, w.eval_mask):.4f}")
print(f"  knn  baseline RMSE: {evaluation.rmse(knn_hat, w.ground_truth, w.eval_mask):.4f}")

# Sweep the missing ratio like the sensitivity study: each cell draws a
# fresh mask from a ratio-derived seed, so cells are independent but
# reproducible.
report = evaluation.sensitivity_sweep(
    series, graph, ratios=[0.2, 0.5, 0.7], methods=["mean", "knn"], seed=11,
    width=12, stride=12, fractions=(0.7, 0.2, 0.1),
    model_config=ModelConfig(d=8, heads=2, head_dim=4, spatial_dim=8, cheb_order=2,
                             kernel_sizes=(3,), blocks=1),
    train_config=TrainConfig(learning_rate=3e-3, epochs=10, batch_size=8, seed=11))
print("\nratio sweep (test-split RMSE):")
for row in report.rows:
    print(f"  r={row.ratio:.1f} {row.method:>4}: RMSE {row.rmse:.4f}  MAPE {row.mape:.2f}%")

print("\nplot-ready pivot (the sweep CSV the CLI writes):")
for line in evaluation.sweep_pivot(report):
    print("  " + ",".join(str(c) for c in line))
