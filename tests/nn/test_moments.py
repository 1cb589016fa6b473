"""``FusedBackend.moments`` (LayerNorm's mean and variance) is the
reference ``NumpyBackend.moments`` byte for byte: the same reductions in
``ndarray.var``'s order, called as ufuncs without ``ndarray.mean`` /
``ndarray.var``'s per-call bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.backend import get_backend, list_backends, native_available

#: Every backend but the reference (native inherits fused's moments).
BACKENDS = [
    pytest.param(
        name,
        marks=[pytest.mark.skip(reason="native extension unavailable")]
        if name == "native" and not native_available()
        else [],
    )
    for name in list_backends()
    if name != "numpy"
]


@st.composite
def _operands(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=ndim, max_size=ndim)))
    axes = draw(
        st.one_of(
            st.just(-1),
            st.integers(-ndim, ndim - 1),
            st.lists(
                st.integers(0, ndim - 1), min_size=1, max_size=ndim, unique=True
            ).map(tuple),
            # Negative members too, in any order.
            st.lists(
                st.integers(-ndim, -1), min_size=1, max_size=ndim, unique=True
            ).map(tuple),
        )
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # Offsets up to 100 standard deviations: the two-pass variance keeps
    # them, a one-pass shortcut would not.
    sigma = 2.0 ** draw(st.integers(-20, 20))
    offset = draw(st.floats(-100.0, 100.0)) * sigma
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).standard_normal(shape) * sigma + offset
    return values.astype(dtype), axes


def _bytes(value):
    array = np.asarray(value)
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@given(operand=_operands(), keepdims=st.booleans())
@settings(max_examples=300, deadline=None)
def test_moments_are_the_reference_bytes(backend, operand, keepdims):
    x, axes = operand
    expected = get_backend("numpy").moments(x, axes, keepdims=keepdims)
    actual = get_backend(backend).moments(x, axes, keepdims=keepdims)
    for got, want in zip(actual, expected):
        assert type(got) is type(want)
        assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_layer_norm_row_is_the_reference_bytes(backend):
    """The transformer's own call: a ``(32, 7, 32)`` row, last axis."""
    x = np.random.default_rng(0).standard_normal((32, 7, 32)).astype(np.float32)
    expected = get_backend("numpy").moments(x, -1, keepdims=True)
    actual = get_backend(backend).moments(x, -1, keepdims=True)
    for got, want in zip(actual, expected):
        assert _bytes(got) == _bytes(want)
