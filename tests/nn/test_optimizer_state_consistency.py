"""Phase-GP's key optimizer property: per-parameter stepping must agree
with whole-model stepping, and mixing the two must keep state coherent.

ADA-GP interleaves whole-model steps (Phase BP) with ``apply_gradients``
updates of predicted gradients (Phase GP) on the *same* optimizer; if the
two paths maintained momentum/Adam state differently, training would
diverge in ways that have nothing to do with gradient prediction.

The optimizers update every stepped parameter in one flat pass.  The
per-tensor reference below is the update written one parameter at a
time; the flat pass must equal it bitwise for every mix of shapes,
missing gradients, subsets, orders and hyperparameters.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.module import Parameter
from repro.nn.optim import Adam, SGD


def _params(values):
    return [Parameter(np.array([v], dtype=np.float32)) for v in values]


class _Reference:
    """Per-tensor optimizer: state in dicts keyed by ``id(param)``, one
    ``step_param`` per updated parameter."""

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        self.lr = lr

    def step(self):
        for param in self.parameters:
            if param.grad is not None:
                self.step_param(param)

    def apply_gradient(self, param, grad):
        saved = param.grad
        param.grad = np.asarray(grad, dtype=np.float32)
        try:
            self.step_param(param)
        finally:
            param.grad = saved

    def state_dict(self):
        index_of = {id(p): i for i, p in enumerate(self.parameters)}
        slots = {
            name: {index_of[k]: v for k, v in getattr(self, name).items()}
            for name in self.slot_names
        }
        return {"lr": self.lr, "slots": slots}


class _ReferenceSGD(_Reference):
    slot_names = ("_velocity",)

    def __init__(self, parameters, lr, momentum):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = {}

    def step_param(self, param):
        if param.grad is None:
            return
        grad = param.grad
        if self.momentum:
            velocity = self._velocity.get(id(param))
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = self.momentum * velocity + grad
            self._velocity[id(param)] = velocity
            update = velocity
        else:
            update = grad
        param.data -= self.lr * update
        param.bump_version()


class _ReferenceAdam(_Reference):
    slot_names = ("_m", "_v", "_t")

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self._m, self._v, self._t = {}, {}, {}

    def step_param(self, param):
        if param.grad is None:
            return
        grad = param.grad
        beta1, beta2 = self.betas
        key = id(param)
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        t = self._t.get(key, 0) + 1
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        self._m[key], self._v[key], self._t[key] = m, v, t
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        param.bump_version()


def _assert_same_state(flat, reference):
    got, want = flat.state_dict(), reference.state_dict()
    assert got["lr"] == want["lr"]
    assert list(got["slots"]) == list(want["slots"])
    for name, entries in want["slots"].items():
        assert sorted(got["slots"][name]) == sorted(entries), name
        for i, value in entries.items():
            assert np.array_equal(got["slots"][name][i], value), (name, i)


_SHAPES = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 9)),
    st.tuples(*[st.integers(1, 3)] * 4),
)


@st.composite
def _runs(draw):
    """Parameter shapes plus a sequence of updates: ``("step", mask)``
    sets ``grad`` on the masked parameters (``None`` elsewhere) and calls
    ``step()``; ``("apply", order)`` applies external gradients to a
    subset of parameters in that order."""
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=6))
    n = len(shapes)
    step = st.tuples(st.just("step"), st.lists(st.booleans(), min_size=n, max_size=n))
    apply = st.tuples(
        st.just("apply"),
        st.permutations(range(n)).flatmap(
            lambda order: st.integers(1, n).map(lambda k: order[:k])
        ),
    )
    ops = draw(st.lists(st.one_of(step, apply), min_size=1, max_size=6))
    return shapes, ops


_SGD_CONFIGS = st.fixed_dictionaries(
    {
        "lr": st.sampled_from([0.05, 0.1, 0.37]),
        "momentum": st.sampled_from([0.0, 0.5, 0.9]),
    }
)
_ADAM_CONFIGS = st.fixed_dictionaries(
    {
        "lr": st.sampled_from([1e-4, 1e-2, 0.3]),
    }
)


def _replay(kind, config, shapes, ops, seed):
    rng = np.random.default_rng(seed)
    initial = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    flat_params = [Parameter(x.copy()) for x in initial]
    ref_params = [Parameter(x.copy()) for x in initial]
    flat = (SGD if kind == "sgd" else Adam)(flat_params, **config)
    reference = (_ReferenceSGD if kind == "sgd" else _ReferenceAdam)(ref_params, **config)
    for op, arg in ops:
        grads = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        if op == "step":
            for params in (flat_params, ref_params):
                for param, grad, has in zip(params, grads, arg):
                    param.grad = grad.copy() if has else None
            flat.step()
            reference.step()
        else:
            flat.apply_gradients([(flat_params[i], grads[i]) for i in arg])
            for i in arg:
                reference.apply_gradient(ref_params[i], grads[i])
        for a, b in zip(flat_params, ref_params):
            assert np.array_equal(a.data, b.data)
            assert a.version == b.version
        _assert_same_state(flat, reference)


class TestFlatEqualsPerTensorReference:
    @given(run=_runs(), config=_SGD_CONFIGS, seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_sgd(self, run, config, seed):
        _replay("sgd", config, *run, seed)

    @given(run=_runs(), config=_ADAM_CONFIGS, seed=st.integers(0, 2**16))
    @example(  # GP applies to a subset, then a full step: t diverges
        run=([(3,), (2, 1, 2, 2), ()], [("apply", (2, 0)), ("step", [True] * 3)]),
        config={"lr": 1e-2},
        seed=0,
    )
    @settings(max_examples=80, deadline=None)
    def test_adam(self, run, config, seed):
        _replay("adam", config, *run, seed)

    def test_adam_diverged_step_counts_use_per_parameter_bias_correction(self):
        a, b = _params([0.5, -0.5])
        opt = Adam([a, b], lr=0.1)
        opt.apply_gradient(a, np.array([1.0], dtype=np.float32))
        a.grad = b.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert opt.state_dict()["slots"]["_t"] == {0: 2, 1: 1}
        # A constant gradient makes every bias-corrected step exactly lr.
        np.testing.assert_allclose([a.data[0], b.data[0]], [0.3, -0.6], rtol=1e-6)


class TestStateDict:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_round_trip_continues_bitwise(self, kind):
        rng = np.random.default_rng(3)
        shapes = [(4, 3), (3,), (2, 2, 1, 1)]
        make = (lambda ps: SGD(ps, lr=0.1, momentum=0.9)) if kind == "sgd" else (
            lambda ps: Adam(ps, lr=0.01)
        )
        params = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        opt = make(params)
        grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(4)]
        opt.apply_gradients([(params[2], grads[0][2]), (params[0], grads[0][0])])
        clones = [Parameter(p.data.copy()) for p in params]
        restored = make(clones)
        restored.load_state_dict(opt.state_dict())
        for step_grads in grads[1:]:
            for o, ps in ((opt, params), (restored, clones)):
                for p, g in zip(ps, step_grads):
                    p.grad = g.copy()
                o.step()
        for a, b in zip(params, clones):
            assert np.array_equal(a.data, b.data)

    def test_entries_only_for_stepped_parameters(self):
        a, b = _params([1.0, 2.0])
        opt = SGD([a, b], lr=0.1, momentum=0.9)
        assert opt.state_dict() == {"lr": 0.1, "slots": {"_velocity": {}}}
        opt.apply_gradient(b, np.array([1.0], dtype=np.float32))
        assert list(opt.state_dict()["slots"]["_velocity"]) == [1]
        no_momentum = SGD([a, b], lr=0.1, momentum=0.0)
        no_momentum.apply_gradient(a, np.array([1.0], dtype=np.float32))
        assert no_momentum.state_dict()["slots"] == {"_velocity": {}}


class TestRepeatedParameter:
    def test_repeated_parameter_in_one_call_raises_and_changes_nothing(self):
        a, b = _params([1.0, 2.0])
        a.name = "conv1.weight"
        opt = SGD([a, b], lr=0.1, momentum=0.9)
        g = np.array([1.0], dtype=np.float32)
        with pytest.raises(ValueError, match="conv1.weight"):
            opt.apply_gradients([(a, g), (b, g), (a, g)])
        assert a.data[0] == 1.0 and b.data[0] == 2.0 and a.version == 0
        assert opt.state_dict()["slots"]["_velocity"] == {}

    def test_parameter_listed_twice_is_rejected(self):
        (a,) = _params([1.0])
        with pytest.raises(ValueError, match="twice"):
            SGD([a, a], lr=0.1)

    def test_foreign_parameter_raises(self):
        (a,) = _params([1.0])
        stranger = Parameter(np.zeros(1, dtype=np.float32), name="stranger")
        with pytest.raises(ValueError, match="stranger"):
            SGD([a], lr=0.1).apply_gradients([(stranger, np.ones(1, np.float32))])


class TestStepEquivalence:
    @given(
        grads=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        lr=st.floats(0.01, 0.5),
        momentum=st.floats(0.0, 0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_sgd_step_equals_per_param_steps(self, grads, lr, momentum):
        a = _params([1.0, 2.0, 3.0])
        b = _params([1.0, 2.0, 3.0])
        opt_a = SGD(a, lr=lr, momentum=momentum)
        opt_b = SGD(b, lr=lr, momentum=momentum)
        for p, g in zip(a, grads):
            p.grad = np.array([g], dtype=np.float32)
        for p, g in zip(b, grads):
            p.grad = np.array([g], dtype=np.float32)
        opt_a.step()
        for p in b:
            opt_b.apply_gradients([(p, p.grad)])
        for pa, pb in zip(a, b):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-6)

    @given(
        sequence=st.lists(st.floats(-1, 1), min_size=2, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_apply_gradient_equals_grad_then_step(self, sequence):
        """apply_gradient(g) == (grad=g; step()) for every step of a run."""
        a = _params([0.5])[0]
        b = _params([0.5])[0]
        opt_a = SGD([a], lr=0.1, momentum=0.9)
        opt_b = SGD([b], lr=0.1, momentum=0.9)
        for g in sequence:
            opt_a.apply_gradient(a, np.array([g], dtype=np.float32))
            b.grad = np.array([g], dtype=np.float32)
            opt_b.step()
        np.testing.assert_allclose(a.data, b.data, rtol=1e-6)

    def test_adam_mixed_paths_keep_time_step_coherent(self):
        """Alternating step()/apply_gradient must advance Adam's t once
        per update, not double-count."""
        p = _params([0.0])[0]
        opt = Adam([p], lr=0.01)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        opt.apply_gradient(p, np.array([1.0], dtype=np.float32))
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert opt.state_dict()["slots"]["_t"][0] == 3

    def test_interleaved_phases_match_pure_sequence(self):
        """A BP-step / GP-apply / BP-step run equals the same gradient
        sequence applied purely through step()."""
        gradients = [0.3, -0.7, 0.2]
        a = _params([1.0])[0]
        opt_a = SGD([a], lr=0.05, momentum=0.9)
        a.grad = np.array([gradients[0]], dtype=np.float32)
        opt_a.step()
        opt_a.apply_gradient(a, np.array([gradients[1]], dtype=np.float32))
        a.grad = np.array([gradients[2]], dtype=np.float32)
        opt_a.step()

        b = _params([1.0])[0]
        opt_b = SGD([b], lr=0.05, momentum=0.9)
        for g in gradients:
            b.grad = np.array([g], dtype=np.float32)
            opt_b.step()
        np.testing.assert_allclose(a.data, b.data, rtol=1e-6)
