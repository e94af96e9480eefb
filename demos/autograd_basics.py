"""A tour of the reverse-mode autodiff core.

Builds a tiny two-layer network from the op library's head, trains it on a
toy regression-ish objective, and finishes with a finite-difference check of
its gradients.

Run:  python3 demos/autograd_basics.py
"""

import numpy as np

from reviewfuse import autograd as ag
from reviewfuse.autograd import Tensor, grad_check

rng = np.random.default_rng(0)

# a 2-layer classifier over 4 features: the parameters of one mlp_head node
w1 = Tensor(rng.normal(scale=0.5, size=(4, 8)), requires_grad=True)
b1 = Tensor(np.zeros(8), requires_grad=True)
w2 = Tensor(rng.normal(scale=0.5, size=(8, 2)), requires_grad=True)
b2 = Tensor(np.zeros(2), requires_grad=True)

x = rng.normal(size=(16, 4))
# label = whether the first feature is positive; linearly separable
labels = (x[:, 0] > 0).astype(int).tolist()


def forward():
    logits = ag.mlp_head(Tensor(x), w1, b1, w2, b2)
    return ag.cross_entropy(logits, labels)


print("plain gradient descent on a separable toy problem:")
for step in range(60):
    for p in (w1, b1, w2, b2):
        p.zero_grad()
    loss = forward()
    loss.backward()
    for p in (w1, b1, w2, b2):
        p.data -= 0.5 * p.grad
    if step % 10 == 0:
        print(f"  step {step:3d}  loss {loss.item():.4f}")

print(f"  final loss {forward().item():.6f}")

# the same graph, checked against central finite differences
err = grad_check(forward, [w1, b1, w2, b2])
print(f"\nmax relative gradient error vs finite differences: {err:.2e}")
assert err < 1e-6
print("gradients verified.")
