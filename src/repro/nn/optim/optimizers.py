"""Optimizers that update every stepped parameter in one flat pass.

Each optimizer lays its per-parameter state (SGD velocity, Adam moments)
out once, in ``parameters`` order, as flat float32 buffers.  An update is
either a whole-model :meth:`Optimizer.step` on ``param.grad`` (Phase BP)
or :meth:`Optimizer.apply_gradients` on externally supplied gradients
(Phase GP's predicted ones: one grouped call per batch on the serial
engines, one call per layer as the pipeline engine streams them in
flight).  Both run the same body: gather the gradients into one flat
scratch buffer, take the stepped parameters' state (the whole buffer, or
copies of its contiguous runs for a subset), run the update as in-place
ufuncs, write the state back and subtract each parameter's slice from its
data.  Every element sees the float32 operations a per-tensor update
would, so the result does not depend on how updates are grouped, and the
two phases keep one coherent optimizer state.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..module import Parameter

#: Adam's moment decay rates and denominator guard (the paper's
#: predictor optimizer uses the standard values).
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class _Plan:
    """Where one set of stepped parameters lies in the flat layout.

    The stepped parameters are gathered in ascending parameter order;
    ``order`` maps that layout back to the caller's list."""

    __slots__ = ("indices", "order", "sizes", "deltas", "runs", "size", "full")

    def __init__(self, optimizer: "Optimizer", indices: tuple[int, ...]) -> None:
        offsets = optimizer._offsets
        self.order = sorted(range(len(indices)), key=indices.__getitem__)
        self.indices = [indices[k] for k in self.order]
        self.sizes = [offsets[i + 1] - offsets[i] for i in self.indices]
        #: (parameter, its slice of the gathered buffer ``_delta`` fills)
        self.deltas: list[tuple[Parameter, np.ndarray]] = []
        #: (flat slice, gathered slice) per maximal contiguous run
        self.runs: list[tuple[slice, slice]] = []
        size = 0
        for position, i in enumerate(self.indices):
            param, lo, hi = optimizer.parameters[i], offsets[i], offsets[i + 1]
            self.deltas.append((param, optimizer._grad[size : size + hi - lo].reshape(param.shape)))
            if position == 0 or self.indices[position - 1] != i - 1:
                run_lo, run_at = lo, size
            size += hi - lo
            if position + 1 == len(self.indices) or self.indices[position + 1] != i + 1:
                self.runs.append((slice(run_lo, hi), slice(run_at, size)))
        self.size = size
        self.full = size == offsets[-1]


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Subclasses name their flat per-element state buffers in ``slots``
    and implement :meth:`_delta`, the update on the gathered gradients.
    """

    slots: tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._index = {id(p): i for i, p in enumerate(self.parameters)}
        if len(self._index) != len(self.parameters):
            raise ValueError("optimizer received the same parameter twice")
        self._offsets = [0]
        for param in self.parameters:
            self._offsets.append(self._offsets[-1] + param.size)
        total = self._offsets[-1]
        self._grad = np.empty(total, dtype=np.float32)
        self._plans: dict[tuple[int, ...], _Plan] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Update every parameter whose ``param.grad`` is set."""
        indices, grads = [], []
        for i, param in enumerate(self.parameters):
            if param.grad is not None:
                indices.append(i)
                grads.append(param.grad)
        self._update(tuple(indices), grads)

    def apply_gradient(self, param: Parameter, grad: np.ndarray) -> None:
        """Step one parameter with an externally supplied gradient."""
        self.apply_gradients([(param, grad)])

    def apply_gradients(
        self, updates: Sequence[tuple[Parameter, np.ndarray]]
    ) -> None:
        """Step each parameter with an externally supplied gradient.

        The Phase-GP entry point: predicted gradients never touch
        ``param.grad`` (which may be mid-accumulation elsewhere).  A
        parameter may appear at most once per call.
        """
        indices = []
        for param, _ in updates:
            i = self._index.get(id(param))
            if i is None:
                raise ValueError(f"parameter {param.name!r} is not in this optimizer")
            indices.append(i)
        self._update(tuple(indices), [grad for _, grad in updates])

    def _update(self, indices: tuple[int, ...], grads: list) -> None:
        if not indices:
            return
        plan = self._plans.get(indices)
        if plan is None:
            if len(set(indices)) != len(indices):
                repeated = next(i for i in indices if indices.count(i) > 1)
                raise ValueError(
                    f"parameter {self.parameters[repeated].name!r} appears "
                    "twice in one update"
                )
            plan = self._plans[indices] = _Plan(self, indices)
        flat = [grads[k].reshape(-1) for k in plan.order]
        if [g.size for g in flat] != plan.sizes:
            param, g = next(
                (p, g) for (p, _), g in zip(plan.deltas, flat) if g.size != p.size
            )
            raise ValueError(f"gradient of size {g.size} for {param.name!r} of shape {param.shape}")
        np.concatenate(flat, out=self._grad[: plan.size])
        self._delta(plan, self._grad[: plan.size])
        for param, delta in plan.deltas:
            param.data -= delta
            param.bump_version()

    def _delta(self, plan: _Plan, grad: np.ndarray) -> None:
        """Advance the stepped parameters' state and overwrite ``grad``,
        the gathered gradients, with the amount to subtract from them."""
        raise NotImplementedError

    @staticmethod
    def _gather(plan: _Plan, flat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The stepped parameters' part of a state buffer: the buffer
        itself when every parameter steps, else a copy of its runs."""
        if plan.full:
            return flat
        state = scratch[: plan.size]
        np.concatenate([flat[run] for run, _ in plan.runs], out=state)
        return state

    @staticmethod
    def _scatter(plan: _Plan, flat: np.ndarray, state: np.ndarray) -> None:
        """Inverse of :meth:`_gather`."""
        if not plan.full:
            for run, at in plan.runs:
                flat[run] = state[at]

    def _stepped(self) -> list[int]:
        """Indices of the parameters that carry state."""
        raise NotImplementedError

    def _slot_view(self, name: str, i: int) -> np.ndarray:
        lo, hi = self._offsets[i], self._offsets[i + 1]
        return getattr(self, name)[lo:hi].reshape(self.parameters[i].shape)

    def state_dict(self) -> dict:
        """``{"lr": lr, "slots": {slot: {index: value}}}`` with an entry
        for every parameter already stepped, keyed by its position in
        ``parameters`` — the checkpoint format."""
        stepped = self._stepped()
        slots = {
            name: {i: self._slot_view(name, i).copy() for i in stepped}
            for name in self.slots
        }
        return {"lr": self.lr, "slots": slots}

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (same parameter order); a
        parameter without an entry restarts from zero state."""
        self.lr = state["lr"]
        for name in self.slots:
            getattr(self, name).fill(0.0)
            for i, value in state["slots"][name].items():
                self._slot_view(name, i)[...] = value


class SGD(Optimizer):
    """SGD with momentum (paper: model optimizer)."""

    slots = ("_velocity",)

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        momentum: float = 0.9,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = np.zeros(self._grad.size, dtype=np.float32)
        self._velocity_scratch = np.empty_like(self._grad)
        self._has_velocity = [False] * len(self.parameters)

    def _delta(self, plan: _Plan, grad: np.ndarray) -> None:
        if self.momentum:
            velocity = self._gather(plan, self._velocity, self._velocity_scratch)
            velocity *= self.momentum
            velocity += grad
            self._scatter(plan, self._velocity, velocity)
            for i in plan.indices:
                self._has_velocity[i] = True
            np.multiply(velocity, self.lr, out=grad)
        else:
            grad *= self.lr

    def _stepped(self) -> list[int]:
        return [i for i, has in enumerate(self._has_velocity) if has]

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        stepped = state["slots"]["_velocity"]
        self._has_velocity = [i in stepped for i in range(len(self.parameters))]


class Adam(Optimizer):
    """Adam (paper: predictor optimizer, lr=1e-4) with
    :data:`ADAM_BETAS` and :data:`ADAM_EPS`.

    Each parameter keeps its own step count, so parameters updated by a
    different number of calls get their own bias correction."""

    slots = ("_m", "_v")

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-4,
    ) -> None:
        super().__init__(parameters, lr)
        self._tmp = np.empty_like(self._grad)
        self._m = np.zeros(self._grad.size, dtype=np.float32)
        self._v = np.zeros(self._grad.size, dtype=np.float32)
        self._m_scratch = np.empty_like(self._grad)
        self._v_scratch = np.empty_like(self._grad)
        self._t = [0] * len(self.parameters)

    def _delta(self, plan: _Plan, grad: np.ndarray) -> None:
        beta1, beta2 = ADAM_BETAS
        tmp = self._tmp[: plan.size]
        m = self._gather(plan, self._m, self._m_scratch)
        v = self._gather(plan, self._v, self._v_scratch)
        m *= beta1
        np.multiply(grad, 1 - beta1, out=tmp)
        m += tmp
        np.square(grad, out=grad)
        grad *= 1 - beta2
        v *= beta2
        v += grad
        self._scatter(plan, self._m, m)
        self._scatter(plan, self._v, v)
        for i in plan.indices:
            self._t[i] += 1
        bias1, bias2 = self._bias_corrections(plan)
        np.divide(m, bias1, out=tmp)
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += ADAM_EPS
        tmp *= self.lr
        np.divide(tmp, grad, out=grad)

    def _bias_corrections(self, plan: _Plan):
        """``1 - beta**t`` for both moments: a scalar when every stepped
        parameter shares t, else a float32 value per element."""
        beta1, beta2 = ADAM_BETAS
        steps = [self._t[i] for i in plan.indices]
        if steps.count(steps[0]) == len(steps):
            return 1 - beta1 ** steps[0], 1 - beta2 ** steps[0]
        return tuple(
            np.repeat(np.array([1 - beta**t for t in steps], dtype=np.float32), plan.sizes)
            for beta in (beta1, beta2)
        )

    def _stepped(self) -> list[int]:
        return [i for i, t in enumerate(self._t) if t]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["slots"]["_t"] = {i: self._t[i] for i in self._stepped()}
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        steps = state["slots"]["_t"]
        self._t = [steps.get(i, 0) for i in range(len(self.parameters))]
