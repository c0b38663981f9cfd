"""Ten one-vs-all digit tasks, shared bottom-up: the full pipeline.

Single-task baselines are pretrained independently, their layer weights are
stacked task-last and factorised at a 10% error budget (which picks every
rank), and the factorised multi-task network is trained end to end.  With
little training data the shared structure wins clearly.  Scaled to run in a
couple of minutes; push n_train / epochs up for sharper numbers.
"""
import numpy as np

from dmtrl import (
    FC, Activation, Conv, LayerSpec, MaxPool, NetworkSpec, SharingMode,
    TrainConfig, count_parameters, evaluate_suite, init_from_stl, pretrain_stl, train,
)
from dmtrl.analysis import extract_mixing, normalize_mixing, sharing_strength
from dmtrl.data import make_suite, sample_fraction, synth_digits

SEED = 0
EPOCHS = 20


def spec_with(mode):
    kinds = [Conv(5, 5, 1, 8), Activation("relu"), MaxPool(),
             Conv(4, 4, 8, 16), Activation("relu"), MaxPool(),
             FC(256, 64), Activation("relu"), FC(64, 1)]
    return NetworkSpec(
        (28, 28, 1), [LayerSpec(k, mode if k.parametrised else None) for k in kinds], 10
    )


print("generating data (10-class synthetic digits, jittered + noisy) ...")
pool = synth_digits(1020, 40000, noise=0.25, jitter=3)
train_suite = make_suite(sample_fraction(pool, 0.01, SEED))       # ~400 images
test_suite = make_suite(synth_digits(2014, 1000, noise=0.25, jitter=3), "test")
print(f"train images: {len(train_suite.source)}, test: {len(test_suite.source)}")

cfg = TrainConfig(epochs=EPOCHS, batch_size=128, lr=2e-3, seed=SEED)

print(f"\npretraining 10 single-task networks ({EPOCHS} epochs) ...")
stl = pretrain_stl(spec_with(SharingMode.INDEPENDENT), train_suite.tasks, cfg)
res = evaluate_suite(stl, test_suite)
print(f"STL      mean binary error {res['mean_binary']:.3f}, "
      f"multiclass {res['multiclass']:.3f}, "
      f"params {count_parameters(stl)['total'] / 1e3:.0f}K")

for label, mode in (("TT", SharingMode.SOFT_TT), ("Tucker", SharingMode.SOFT_TUCKER)):
    net = init_from_stl(stl, spec_with(mode), epsilon=0.10)
    train(net, train_suite.tasks, cfg)
    res = evaluate_suite(net, test_suite)
    print(f"soft {label:6s} mean binary error {res['mean_binary']:.3f}, "
          f"multiclass {res['multiclass']:.3f}, "
          f"params {count_parameters(net)['total'] / 1e3:.0f}K")
    rhos = [(net.param_layers[i].name,
             sharing_strength(normalize_mixing(extract_mixing(net, i))))
            for i in sorted(net.param_layers)]
    print("  sharing strength by layer:",
          "  ".join(f"{n.split('.')[0]}={r:.3f}" for n, r in rhos))
