"""A from-scratch NumPy neural-network library.

This is the trainable-model substrate for the federated-learning simulator.
It provides exactly what the paper's models need — 2-layer CNNs for image
classification and 2-layer LSTMs for next-token prediction — implemented
with explicit, gradient-checked backward passes and vectorized NumPy.

Design notes
------------
- Layers follow a ``forward(x) -> y`` / ``backward(dy) -> dx`` protocol and
  accumulate parameter gradients into ``Parameter.grad``.
- Models expose flat-vector parameter access (:func:`get_flat_params` /
  :func:`set_flat_params`) because federated aggregation operates on flat
  parameter/pseudo-gradient vectors.
- Serial layers are float64: the workloads are tiny and exact gradients make
  the library testable with numerical differentiation. The stacked slab
  kernels also default to float64, the bit-exact serial-equivalence
  reference; an opt-in float32 slab dtype (``cohort_dtype`` or
  ``$REPRO_DTYPE``, see :func:`resolve_dtype`) halves slab memory.
"""

from repro.nn.module import (
    Module,
    Parameter,
    Sequential,
    get_flat_grads,
    get_flat_params,
    set_flat_params,
)
from repro.nn.initializers import glorot_uniform, he_normal, normal_init, zeros_init, orthogonal
from repro.nn.functional import im2col, col2im, log_softmax, one_hot, softmax
from repro.nn.layers import (
    Conv2D,
    Dropout,
    Embedding,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.losses import mse_loss, softmax_cross_entropy, sequence_cross_entropy
from repro.nn.optim import (
    SGD,
    Adam,
    FlatSGD,
    Optimizer,
    copy_slab_rows,
    fused_sgd_step,
    perturb_rows,
)
from repro.nn.stacked import (
    DTYPE_ENV,
    STACKED_LOSSES,
    SUPPORTED_DTYPES,
    StackedConv2D,
    StackedDropout,
    StackedEmbedding,
    StackedFlatten,
    StackedLSTM,
    StackedLSTMCell,
    StackedLinear,
    StackedMaxPool2D,
    StackedModel,
    StackedReLU,
    StackedSigmoid,
    StackedTanh,
    collect_dropout_rngs,
    eval_stack_signature,
    resolve_dtype,
    stack_signature,
    stacked_mse,
    stacked_sequence_cross_entropy,
    stacked_softmax_cross_entropy,
    supports_stacking,
)
from repro.nn.models import make_cnn, make_lstm_lm, make_mlp, LanguageModel
from repro.nn.gradcheck import gradcheck_module, numerical_gradient
from repro.nn.serialization import load_params, save_params

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "get_flat_grads",
    "get_flat_params",
    "set_flat_params",
    "glorot_uniform",
    "he_normal",
    "normal_init",
    "zeros_init",
    "orthogonal",
    "im2col",
    "col2im",
    "log_softmax",
    "one_hot",
    "softmax",
    "Conv2D",
    "Dropout",
    "Embedding",
    "Flatten",
    "Linear",
    "MaxPool2D",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LSTM",
    "LSTMCell",
    "mse_loss",
    "softmax_cross_entropy",
    "sequence_cross_entropy",
    "SGD",
    "Adam",
    "FlatSGD",
    "Optimizer",
    "copy_slab_rows",
    "fused_sgd_step",
    "perturb_rows",
    "DTYPE_ENV",
    "STACKED_LOSSES",
    "SUPPORTED_DTYPES",
    "StackedConv2D",
    "StackedDropout",
    "StackedEmbedding",
    "StackedFlatten",
    "StackedLSTM",
    "StackedLSTMCell",
    "StackedLinear",
    "StackedMaxPool2D",
    "StackedModel",
    "StackedReLU",
    "StackedSigmoid",
    "StackedTanh",
    "collect_dropout_rngs",
    "eval_stack_signature",
    "resolve_dtype",
    "stack_signature",
    "stacked_mse",
    "stacked_sequence_cross_entropy",
    "stacked_softmax_cross_entropy",
    "supports_stacking",
    "make_cnn",
    "make_lstm_lm",
    "make_mlp",
    "LanguageModel",
    "gradcheck_module",
    "numerical_gradient",
    "load_params",
    "save_params",
]
