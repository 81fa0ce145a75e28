"""Every analytic gradient against central finite differences.

The training stack never relies on autodiff: dense backprop, the tempered
softmax cross-entropy, the distillation loss, and the generator's diversity
regularizer all ship hand-derived gradients. This script replays the
verification that each of them matches a numeric derivative.
"""

import numpy as np

from kdia import generator, nn, trainer
from kdia.gradcheck import fd_array_grad, fd_model_grads, max_relative_error

rng = np.random.default_rng(42)

# dense + ReLU stack, gradients of the mean cross-entropy w.r.t. every weight
model = nn.he_uniform_init([6, 12, 4], 1, rng)
x = rng.normal(size=(8, 6))
y = rng.integers(0, 4, size=8)
_, grad_logits = nn.softmax_ce_loss(nn.forward(model, x), y)
analytic = nn.backward(model, x, grad_logits)
numeric = fd_model_grads(lambda p: nn.softmax_ce_loss(nn.forward(p, x), y)[0], model)
worst = max_relative_error(analytic, numeric)
print(f"dense+ReLU backprop vs finite differences: max rel error {worst:.2e}")

# tempered softmax cross-entropy at tau = 2
logits = rng.normal(size=(6, 5))
labels = rng.integers(0, 5, size=6)
_, g = nn.softmax_ce_loss(logits, labels, temperature=2.0)
num = fd_array_grad(lambda z: nn.softmax_ce_loss(z, labels, 2.0)[0], logits)
print(f"tempered softmax-CE:                       max rel error "
      f"{max_relative_error(g, num):.2e}")

# distillation loss against a random teacher
teacher_logits = rng.normal(size=(6, 5))
_, g = trainer.kd_loss(logits, teacher_logits, temperature=2.0, kd_weight=0.5)
num = fd_array_grad(
    lambda z: trainer.kd_loss(z, teacher_logits, 2.0, 0.5)[0], logits
)
print(f"distillation loss:                         max rel error "
      f"{max_relative_error(g, num):.2e}")

# diversity regularizer over half-batch pairs
noise = rng.normal(size=(8, 4))
feats = rng.normal(size=(8, 6))
_, g = generator.diversity_loss(noise, feats, eps=1e-3)
num = fd_array_grad(lambda z: generator.diversity_loss(noise, z, 1e-3)[0], feats)
print(f"diversity regularizer:                     max rel error "
      f"{max_relative_error(g, num):.2e}")

# the distillation gradient is the same whether derived from the
# cross-entropy form or pushed through the KL divergence chain rule
p = nn.softmax(teacher_logits, 2.0)
q = nn.softmax(logits, 2.0)
kl_grad = np.zeros_like(logits)
for r in range(logits.shape[0]):
    jac = (np.diag(q[r]) - np.outer(q[r], q[r])) / 2.0
    kl_grad[r] = jac @ (-(p[r] / q[r]) / logits.shape[0])
_, ce_grad = trainer.kd_loss(logits, teacher_logits, 2.0, 1.0)
print(f"KL-form vs CE-form distillation gradient:  max abs diff "
      f"{np.abs(kl_grad - ce_grad).max():.2e}")
