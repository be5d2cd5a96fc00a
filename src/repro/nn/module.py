"""Module/Parameter base classes and flat parameter-vector access."""

from __future__ import annotations

from typing import Iterator, List

import numpy as np


class Parameter:
    """A trainable tensor: ``data`` plus an accumulated gradient ``grad``.

    ``name`` is informational (used in error messages and debugging dumps).
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class for layers and models.

    The contract:

    - ``forward(x)`` computes the output and caches whatever the backward
      pass needs.
    - ``backward(dy)`` consumes the gradient of the loss w.r.t. the output,
      *accumulates* parameter gradients into ``p.grad``, and returns the
      gradient w.r.t. the input.
    - ``parameters()`` yields every :class:`Parameter` in the subtree.

    Layers behave the same in training and inference, and must be usable
    for repeated forward/backward cycles without re-allocation of
    parameters, since federated clients reuse one model object across rounds.
    """

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module (in a stable order)."""
        params: List[Parameter] = []
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Parameter):
                        params.append(item)
                    elif isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    # -- conveniences ------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


def get_flat_params(module: Module) -> np.ndarray:
    """Concatenate all parameters of ``module`` into one float64 vector.

    The ordering matches :meth:`Module.parameters` and is stable for a given
    architecture, which is what federated aggregation relies on.
    """
    params = module.parameters()
    if not params:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([p.data.ravel() for p in params])


def set_flat_params(module: Module, flat: np.ndarray) -> None:
    """Write ``flat`` back into the module's parameters (inverse of get)."""
    flat = np.asarray(flat, dtype=np.float64)
    expected = module.num_parameters()
    if flat.ndim != 1 or flat.size != expected:
        raise ValueError(f"expected flat vector of size {expected}, got shape {flat.shape}")
    offset = 0
    for p in module.parameters():
        chunk = flat[offset : offset + p.size]
        p.data[...] = chunk.reshape(p.shape)
        offset += p.size


def get_flat_grads(module: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one vector."""
    params = module.parameters()
    if not params:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([p.grad.ravel() for p in params])
