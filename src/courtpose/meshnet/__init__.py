from .spirals import SpiralIndices, build_spirals
from .sampling import SamplingOperator, build_sampling
from .network import NetConfig, PartOps, init_params, tl_forward, tl_training_forward
from .training import TrainConfig, train_toy, save_params, load_params

__all__ = [
    "SpiralIndices", "build_spirals",
    "SamplingOperator", "build_sampling",
    "NetConfig", "PartOps", "init_params", "tl_forward", "tl_training_forward",
    "TrainConfig", "train_toy", "save_params", "load_params",
]
