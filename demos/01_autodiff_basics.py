"""A walk through the autodiff core: build tensors, differentiate, verify.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from maginet import autodiff as ad
from maginet.gradcheck import check_gradients

# Leaves are plain float64 arrays wrapped in Tensor; requires_grad puts
# them on the tape.
x = ad.parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
w = ad.parameter(np.array([[0.1, 0.4, -0.5, 0.3], [-0.3, 0.2, 0.6, -0.1]]))

# Compose with operators and module functions. Everything records its
# backward rule as it runs. The gate, as in the model's temporal
# convolutions, is tanh of the first half of the columns times sigmoid
# of the second half.
hidden = ad.tanh_sigmoid_gate(ad.matmul(x, w))
score = ad.masked_softmax(hidden)
loss = (score * score).sum()
print("loss:", loss.item())

# backward() replays the trace in reverse and fills .grad on the leaves.
loss.backward()
print("dL/dx:\n", x.grad)
print("dL/dw:\n", w.grad)

# The package's main verification tool: central finite differences only
# ever call the forward pass, so they are independent of every backward
# rule they check.
x.zero_grad()
w.zero_grad()
target = ad.constant(np.array([[0.2, 0.8], [0.9, 0.1]]))
errors = check_gradients(
    lambda: (ad.masked_softmax(ad.tanh_sigmoid_gate(ad.matmul(x, w))) * target).sum(),
    {"x": x, "w": w})
print("gradient check max relative errors:", errors)

# Masking semantics: -inf scores drop out of the softmax exactly.
scores = ad.constant([[2.0, -np.inf, 0.5], [-np.inf, -np.inf, -np.inf]])
print("masked softmax rows:\n", ad.masked_softmax(scores).data)
print("(a fully masked row collapses to zeros, not NaN)")
raw = ad.constant([[2.0, 7.0, 0.5], [1.0, 3.0, 2.0]])
keep = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
print("the same rows from a keep mask, which never forms -inf:\n",
      ad.masked_softmax(raw, keep).data)
