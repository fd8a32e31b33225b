"""Minimal differentiable-layer engine: numpy forward/backward passes.

Every layer the terrain-classification architectures need — dense, 1-D
convolution, batch norm, pooling, LSTM, softmax cross-entropy — with
hand-written backward passes, Adam, finite-difference gradient checking,
a versioned text checkpoint format, `blas.one_thread()`, which holds
numpy's OpenBLAS to one thread, and `lanes`, which runs the independent
pieces of one call on several cores.  No autodiff graph: each layer
caches what its backward pass needs.
"""

from .layers import (
    BatchNorm1D,
    BatchTooSmall,
    Conv1D,
    Dense,
    GlobalAvgPool1D,
    LabelOutOfRange,
    Layer,
    LSTM,
    MaxPool1D,
    Param,
    ReLU,
    ShapeMismatch,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
)
from .optim import Adam
from .gradcheck import grad_check, GRAD_CHECKED_KINDS
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint

__all__ = [
    "Adam", "BatchNorm1D", "BatchTooSmall", "CheckpointError", "Conv1D",
    "Dense", "GlobalAvgPool1D", "GRAD_CHECKED_KINDS",
    "LSTM", "LabelOutOfRange", "Layer", "MaxPool1D",
    "Param", "ReLU", "ShapeMismatch", "grad_check", "read_checkpoint",
    "softmax_cross_entropy", "softmax_cross_entropy_backward",
    "write_checkpoint",
]
