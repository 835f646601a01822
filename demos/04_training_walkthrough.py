"""Train the imputation network on a small synthetic instance.

Takes about a minute on one core. Run:
    python demos/04_training_walkthrough.py
"""

import numpy as np

from maginet import data
from maginet.evaluation import evaluate_baseline, imputation_traces
from maginet.model import MagiNet, ModelConfig
from maginet.training import TrainConfig, evaluate_model, predict_windows, train_model

graph = data.synthetic_graph(8, extra_edges=2, seed=3)
series = data.generate_synthetic(8, 720, graph, seed=3)
mask = data.draw_eval_mask(series, ratio=0.5, seed=3)
windows = data.make_windows(series, mask, width=12, stride=12)
train_ws, valid_ws, test_ws = data.split(windows, (0.7, 0.2, 0.1))
print(f"windows: {len(train_ws)} train / {len(valid_ws)} valid / {len(test_ws)} test")

config = ModelConfig(d=8, heads=2, head_dim=4, spatial_dim=8, cheb_order=2,
                     kernel_sizes=(3,), blocks=1)
model = MagiNet(config, graph, width=12, n_features=1, seed=3)
print(f"parameters: {model.params.n_parameters}")

result = train_model(model, train_ws, valid_ws,
                     TrainConfig(learning_rate=3e-3, epochs=60, batch_size=8,
                                 patience=15, seed=3))
for entry in result.history:
    if entry["epoch"] % 10 == 0 or entry["epoch"] == 1:
        print(f"epoch {entry['epoch']:3d}: train L1 {entry['train_loss']:.4f} "
              f"(normalized), val RMSE {entry['val_rmse']:.4f}")
print(f"best epoch {result.best_epoch}, val RMSE {result.best_val_rmse:.4f}")

# Score on the untouched test windows, against the statistical baselines.
test_rmse, test_mape = evaluate_model(model, test_ws)
mean_rmse, _ = evaluate_baseline("mean", test_ws)
knn_rmse, _ = evaluate_baseline("knn", test_ws, knn_k=3)
print(f"\ntest RMSE: model {test_rmse:.4f} | mean {mean_rmse:.4f} | knn {knn_rmse:.4f}")

# Imputation trace for one node: what a plotting tool would consume.
preds = predict_windows(model, test_ws)
trace = imputation_traces(test_ws, preds)[0]
print("\nnode 0, first 8 test steps (t, truth, imputed, observed):")
for row in trace[:8]:
    truth = "   nan" if np.isnan(row[1]) else f"{row[1]:6.2f}"
    print(f"  t={row[0]:4d}  truth={truth}  imputed={row[2]:6.2f}  observed={row[3]}")
