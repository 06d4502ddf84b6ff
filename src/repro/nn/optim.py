"""Optimizers: SGD with momentum (the paper's choice) and Adam (its
future-work suggestion, which we also evaluate as an extension).

The paper trains with standard SGD, learning rate 0.001, momentum 0.9
(§6, "Neural networks").

Two update paths are provided:

* the classic per-parameter :meth:`Optimizer.step` over ``param.grad``
  arrays (the reference path, used by taped training);
* a fused path over a :class:`FlatParameterSpace` — every parameter's
  data and gradient live as views into one flat buffer each, so the
  global-norm clip and the optimizer update are a handful of vectorized
  numpy operations regardless of how many (small) parameters the model
  has.  Used by the fused training engine in :mod:`repro.core.trainer`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .tensor import Tensor


class FlatParameterSpace:
    """Flat data/grad storage for a fixed parameter list, with views.

    Construction concatenates all parameter values into one flat
    buffer (in the parameters' shared dtype — float32 models get a
    float32 flat space, so the fused clip and update run at the model's
    own precision) and rebinds each ``param.data`` to a reshaped view
    of it (values preserved); a parallel flat gradient buffer provides
    per-parameter views that :meth:`bind_grads` installs as ``param.grad``.
    Gradient accumulation (taped ``_accumulate`` or the fused engine's
    ``backward_train`` path) then lands directly in the flat buffer, and:

    * :meth:`clip_grad_norm_` computes the global L2 norm with one dot
      product and rescales with one multiply (vs. a Python loop over
      parameters);
    * :meth:`SGD.step_flat` / :meth:`Adam.step_flat` update every
      parameter with O(1) numpy calls total.

    One space should own a parameter at a time: building a second space
    over the same parameters rebinds them and orphans the first.  Note
    the fused semantics treat a parameter with no gradient this step as
    having a zero gradient (momentum keeps coasting), whereas the loop
    :meth:`Optimizer.step` skips ``grad is None`` parameters entirely.
    """

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("FlatParameterSpace received no parameters")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("duplicate parameters in FlatParameterSpace")
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(
                f"FlatParameterSpace requires a uniform parameter dtype, got {sorted(map(str, dtypes))}"
            )
        self.dtype = dtypes.pop()
        self.size = sum(p.data.size for p in self.parameters)
        self.data = np.empty(self.size, dtype=self.dtype)
        self.grad = np.zeros(self.size, dtype=self.dtype)
        self._grad_views: list[np.ndarray] = []
        offset = 0
        for param in self.parameters:
            shape = param.data.shape
            stop = offset + param.data.size
            self.data[offset:stop] = param.data.reshape(-1)
            param.data = self.data[offset:stop].reshape(shape)
            self._grad_views.append(self.grad[offset:stop].reshape(shape))
            offset = stop

    def bind_grads(self) -> None:
        """Install the flat-buffer views as every ``param.grad``."""
        for param, view in zip(self.parameters, self._grad_views):
            param.grad = view

    def zero_grad(self) -> None:
        """Zero the flat gradient buffer and (re)bind the views."""
        self.grad.fill(0.0)
        self.bind_grads()

    def grad_norm(self) -> float:
        """Global L2 norm of all gradients (one dot product)."""
        return float(np.sqrt(self.grad @ self.grad))

    def clip_grad_norm_(self, max_norm: float) -> float:
        """Vectorized global-norm clip; returns the pre-clip norm.

        Agrees with :meth:`Optimizer.clip_grad_norm` when every
        parameter's gradient is bound to this space.
        """
        norm = self.grad_norm()
        if norm > max_norm and norm > 0.0:
            self.grad *= max_norm / norm
        return norm


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """All mutable optimizer state (scalars and numpy arrays).

        The contract is exact-resume: ``load_state_dict(state_dict())``
        on a fresh optimizer over the same parameters reproduces the
        update sequence bitwise.  Used by :mod:`repro.core.checkpoint`.
        """
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`."""
        raise NotImplementedError

    def step_flat(self, space: FlatParameterSpace) -> None:
        """Fused update over a :class:`FlatParameterSpace` (if supported)."""
        raise NotImplementedError(f"{type(self).__name__} has no fused step")

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clip norm.  Useful because plan-structured loss sums
        over every operator, which can make early gradients large.
        """
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.001,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._flat_velocity: Optional[np.ndarray] = None

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity -= self.lr * grad
            param.data += velocity

    def step_flat(self, space: FlatParameterSpace) -> None:
        """One fused momentum update over the whole flat parameter space."""
        if self._flat_velocity is None or self._flat_velocity.shape != space.grad.shape:
            self._flat_velocity = np.zeros_like(space.grad)
        grad = space.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * space.data
        velocity = self._flat_velocity
        velocity *= self.momentum
        velocity -= self.lr * grad
        space.data += velocity

    def state_dict(self) -> dict:
        state: dict = {"lr": self.lr, "momentum": self.momentum, "weight_decay": self.weight_decay}
        for index, velocity in enumerate(self._velocity):
            state[f"velocity.{index}"] = velocity.copy()
        if self._flat_velocity is not None:
            state["flat_velocity"] = self._flat_velocity.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        for index, velocity in enumerate(self._velocity):
            np.copyto(velocity, state[f"velocity.{index}"])
        flat = state.get("flat_velocity")
        self._flat_velocity = None if flat is None else np.array(flat, copy=True)


class Adam(Optimizer):
    """Adam (Kingma & Ba, ICLR'15) — the paper's suggested alternative."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0
        self._flat_m: Optional[np.ndarray] = None
        self._flat_v: Optional[np.ndarray] = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step_flat(self, space: FlatParameterSpace) -> None:
        """One fused Adam update over the whole flat parameter space."""
        if self._flat_m is None or self._flat_m.shape != space.grad.shape:
            self._flat_m = np.zeros_like(space.grad)
            self._flat_v = np.zeros_like(space.grad)
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        grad = space.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * space.data
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        space.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def state_dict(self) -> dict:
        state: dict = {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "t": self._t,
        }
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{index}"] = m.copy()
            state[f"v.{index}"] = v.copy()
        if self._flat_m is not None:
            state["flat_m"] = self._flat_m.copy()
            state["flat_v"] = self._flat_v.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._t = int(state["t"])
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            np.copyto(m, state[f"m.{index}"])
            np.copyto(v, state[f"v.{index}"])
        flat_m = state.get("flat_m")
        if flat_m is None:
            self._flat_m = None
            self._flat_v = None
        else:
            self._flat_m = np.array(flat_m, copy=True)
            self._flat_v = np.array(state["flat_v"], copy=True)


class StepLR:
    """Multiply the optimizer learning rate by ``gamma`` every ``step_size`` epochs.

    Works with any optimizer exposing a mutable ``lr`` attribute (both
    :class:`SGD` and :class:`Adam` do).
    """

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


def make_optimizer(name: str, parameters: Iterable[Tensor], lr: float, momentum: float = 0.9) -> Optimizer:
    """Factory used by trainer configs (``"sgd"`` or ``"adam"``)."""
    name = name.lower()
    if name == "sgd":
        return SGD(parameters, lr=lr, momentum=momentum)
    if name == "adam":
        return Adam(parameters, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")
