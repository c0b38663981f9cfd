"""Two tasks with different output arities over the same inputs.

A binary task (width-2 softmax head) and an eight-class task share every
layer except the heads, which cannot be shared because their shapes differ.
The shared trunk is a soft TT structure; heads stay independent.
"""
import numpy as np

from dmtrl import (
    FC, Activation, Conv, LayerSpec, MaxPool, NetworkSpec, RandomDecompose, SharingMode,
    TrainConfig, build_network, evaluate_tasks, train,
)
from dmtrl.analysis import extract_mixing, normalize_mixing, sharing_strength
from dmtrl.data import as_multiclass, synth_heterogeneous

binary_train, class_train = synth_heterogeneous(seed=0, n_per_task=600)
binary_test, class_test = synth_heterogeneous(seed=1, n_per_task=400)
train_tasks = [as_multiclass(binary_train), class_train]
test_tasks = [as_multiclass(binary_test), class_test]
print("inputs:", train_tasks[0].inputs.shape, "heads: 2-way and 8-way")

spec = NetworkSpec(
    (16, 16, 1),
    [LayerSpec(Conv(3, 3, 1, 6), SharingMode.SOFT_TT),
     LayerSpec(Activation("tanh")),
     LayerSpec(MaxPool()),
     LayerSpec(FC(294, 24), SharingMode.SOFT_TT),
     LayerSpec(Activation("tanh")),
     LayerSpec(FC(24, 8), SharingMode.INDEPENDENT)],
    tasks=2,
    head_dims=[2, 8],
)

net = build_network(spec, RandomDecompose(0.10), seed=3)
train(net, train_tasks, TrainConfig(epochs=20, batch_size=32, seed=3))
errs = evaluate_tasks(net, test_tasks)
print(f"binary-task error  {errs[0]:.3f}")
print(f"8-class-task error {errs[1]:.3f}")

for i in (0, 3):
    rho = sharing_strength(normalize_mixing(extract_mixing(net, i)))
    print(f"sharing strength at layer {i} ({net.param_layers[i].name}): {rho:.3f}")
