"""A network per task, weights drawn from shared factors.

Builds three two-layer task networks whose first layer is a single TT
structure, runs forward/backward, and shows that factor gradients line up
with finite differences and that parameter counts sit between the fully
tied and fully independent extremes.
"""
import numpy as np

from dmtrl import (
    FC, Activation, LayerSpec, NetworkSpec, RandomDecompose, SharingMode,
    build_network, count_parameters,
)

rng = np.random.default_rng(2)
TASKS = 3


def spec(mode):
    return NetworkSpec(
        (6,),
        [LayerSpec(FC(6, 5), mode),
         LayerSpec(Activation("tanh")),
         LayerSpec(FC(5, 1), SharingMode.INDEPENDENT)],
        TASKS,
    )


net = build_network(spec(SharingMode.SOFT_TT), RandomDecompose(epsilon=0.3), seed=7)
x = rng.normal(size=(4, 6))
for t in range(TASKS):
    print(f"task {t} outputs:", np.round(net.forward(t, x)[:, 0], 3))

# Backward records factor gradients; check one against finite differences.
task = 1
co = rng.normal(size=(4, 1))
net.forward(task, x)
net.backward(task, co)
g = net.gradients()["layer0.fc.tt.head"]

head = net.parameters()["layer0.fc.tt.head"]
num = np.zeros_like(head)
h = 1e-6
for idx in np.ndindex(head.shape):
    keep = head[idx]
    head[idx] = keep + h
    up = float(np.sum(net.forward(task, x) * co))
    head[idx] = keep - h
    dn = float(np.sum(net.forward(task, x) * co))
    head[idx] = keep
    num[idx] = (up - dn) / (2 * h)
print("factor gradient vs finite differences:",
      np.allclose(g, num, rtol=1e-5, atol=1e-8))

# Parameter counts. Fresh random tasks are unrelated, so ranks stay near
# full and the factorised form holds no advantage yet; the savings appear
# when the structure is fitted to related tasks (see demo 04).
for mode in (SharingMode.TIED, SharingMode.SOFT_TT, SharingMode.INDEPENDENT):
    n = build_network(spec(mode), RandomDecompose(epsilon=0.3), seed=7)
    c = count_parameters(n)
    print(f"{mode.value:12s} total {c['total']:4d} "
          f"(x{c['ratio_vs_independent']:.2f} of independent)")
