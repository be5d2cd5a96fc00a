"""Model factories matching the paper's architectures.

The paper trains (a) 2-layer CNNs for image classification on
CIFAR10/FEMNIST and (b) 2-layer LSTMs with tied embedding/hidden width for
next-token prediction on StackOverflow/Reddit. These factories build
scaled-down versions of the same shapes; all widths are arguments so the
test/small/paper presets can size them.
"""

from __future__ import annotations

from typing import Sequence

from repro.nn.layers import Conv2D, Embedding, Flatten, Linear, MaxPool2D, ReLU
from repro.nn.module import Sequential
from repro.nn.recurrent import LSTM
from repro.utils.rng import SeedLike, as_rng


def make_mlp(
    in_features: int,
    num_classes: int,
    hidden: Sequence[int] = (32,),
    rng: SeedLike = None,
) -> Sequential:
    """Multi-layer perceptron for flat feature vectors."""
    rng = as_rng(rng)
    layers = []
    prev = in_features
    for width in hidden:
        layers.append(Linear(prev, width, rng))
        layers.append(ReLU())
        prev = width
    layers.append(Linear(prev, num_classes, rng))
    return Sequential(*layers)


def make_cnn(
    image_hw: int,
    in_channels: int,
    num_classes: int,
    channels: Sequence[int] = (8, 16),
    rng: SeedLike = None,
) -> Sequential:
    """The paper's 2-layer CNN: [conv-relu-pool] x 2 -> linear head.

    ``image_hw`` must be divisible by ``2 ** len(channels)`` so the pooling
    stages tile exactly.
    """
    rng = as_rng(rng)
    if image_hw % (2 ** len(channels)) != 0:
        raise ValueError(
            f"image size {image_hw} not divisible by 2^{len(channels)} pooling stages"
        )
    layers = []
    prev_c = in_channels
    hw = image_hw
    for c in channels:
        layers.append(Conv2D(prev_c, c, kernel_size=3, stride=1, pad=1, rng=rng))
        layers.append(ReLU())
        layers.append(MaxPool2D(2))
        prev_c = c
        hw //= 2
    layers.append(Flatten())
    layers.append(Linear(prev_c * hw * hw, num_classes, rng))
    return Sequential(*layers)


class LanguageModel(Sequential):
    """Embedding -> multi-layer LSTM -> tied-width linear head.

    Input is ``(N, T)`` integer token ids; output is ``(N, T, vocab)``
    next-token logits. Kept as a named class so downstream code can branch
    on model kind when needed.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden: int,
        num_layers: int,
        rng: SeedLike = None,
    ):
        rng = as_rng(rng)
        super().__init__(
            Embedding(vocab_size, embed_dim, rng),
            LSTM(embed_dim, hidden, num_layers=num_layers, rng=rng),
            Linear(hidden, vocab_size, rng),
        )
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.num_layers_lstm = num_layers


def make_lstm_lm(
    vocab_size: int,
    embed_dim: int = 16,
    hidden: int = 16,
    num_layers: int = 2,
    rng: SeedLike = None,
) -> LanguageModel:
    """The paper's 2-layer LSTM language model (embedding size == hidden size
    in the paper; configurable here)."""
    return LanguageModel(vocab_size, embed_dim, hidden, num_layers, rng)
