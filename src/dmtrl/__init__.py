"""Multi-task neural networks whose layer weights are composed from shared
and task-specific tensor factors, trained end to end."""

from .linalg import rank_for_error, tensor, thin_svd
from .factorization import (
    LAFFactors,
    TTFactors,
    TuckerFactors,
    compose_backward,
    compose_task,
    compose_tt,
    compose_tucker,
    decompose,
    laf_decompose,
    tt_decompose,
    tucker_decompose,
)
from .network import (
    FC,
    Activation,
    Conv,
    LayerSpec,
    MaxPool,
    MultiTaskNetwork,
    NetworkSpec,
    SharingMode,
    build_network,
    count_parameters,
)
from .training import (
    PlainRandom,
    RandomDecompose,
    StlInit,
    TrainConfig,
    evaluate_suite,
    evaluate_tasks,
    init_from_stl,
    pretrain_stl,
    train,
)
from .analysis import extract_mixing, normalize_mixing, sharing_strength, task_affinity
from .checkpoint import load_checkpoint, load_network, save_checkpoint, save_network

__version__ = "0.1.0"
