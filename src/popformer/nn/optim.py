"""Adam with decoupled weight decay."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Per-parameter first/second moment estimates with bias correction.

    Decoupled weight decay shrinks parameters before the moment update, so a
    zero gradient with zero decay leaves parameters untouched.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
