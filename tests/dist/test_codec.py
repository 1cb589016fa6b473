"""Gradient codec tests: round-trips, AdaComp adversarial tensors,
residual carry-over determinism, and wire-byte accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import (
    AdaCompCodec,
    Codec,
    IdentityCodec,
    decode,
    decode_sum,
    resolve_codec,
)
from repro.dist.codec import HEADER_BYTES, bucket_layout

RNG = np.random.default_rng(7)


class TestIdentityCodec:
    def test_round_trip_is_bitwise(self):
        for shape in [(8, 4, 3, 3), (100,), (5, 7), (1,)]:
            grad = RNG.standard_normal(shape).astype(np.float32)
            enc = IdentityCodec().encode(0, grad)
            out = decode(enc)
            assert out.shape == grad.shape
            assert out.tobytes() == grad.tobytes()

    def test_wire_accounting_is_dense(self):
        grad = RNG.standard_normal((16, 16)).astype(np.float32)
        enc = IdentityCodec().encode(0, grad)
        assert enc.dense_bytes == grad.nbytes
        assert enc.wire_bytes == HEADER_BYTES + grad.nbytes

    def test_spawn_is_fresh(self):
        codec = IdentityCodec()
        assert isinstance(codec.spawn(), IdentityCodec)
        assert codec.spawn() is not codec


class TestAdaCompAdversarial:
    def test_all_zero_gradient_sends_nothing(self):
        # Without the threshold>0 guard, |H|+|G| >= 0 would select every
        # element of an all-zero bin.
        codec = AdaCompCodec(bin_size=16)
        enc = codec.encode(0, np.zeros((64,), dtype=np.float32))
        assert enc.indices.size == 0
        assert enc.values.size == 0
        assert np.array_equal(decode(enc), np.zeros(64, dtype=np.float32))

    def test_single_spike_is_sent_exactly(self):
        codec = AdaCompCodec(bin_size=16)
        grad = np.zeros((64,), dtype=np.float32)
        grad[37] = 3.5  # exactly representable in float16
        enc = codec.encode(0, grad)
        assert enc.indices.tolist() == [37]
        assert enc.values.tolist() == [3.5]
        # The sent entry leaves the residual; nothing else accumulated.
        assert not codec.residual(0).any()
        out = decode(enc)
        assert out.tobytes() == grad.tobytes()

    def test_denormals_survive_via_error_feedback(self):
        codec = AdaCompCodec(bin_size=8)
        tiny = np.float32(1e-40)  # subnormal in float32, flushes to 0 in float16
        grad = np.full((32,), tiny, dtype=np.float32)
        enc = codec.encode(0, grad)
        out = decode(enc)
        assert np.isfinite(out).all()
        # The float16 wire cannot represent 1e-40 — but error feedback
        # keeps every bit of it in the residual, nothing is lost.
        np.testing.assert_array_equal(decode(enc) + codec.residual(0), grad)

    def test_denormals_round_trip_exactly_on_float32_wire(self):
        codec = AdaCompCodec(bin_size=8, wire_dtype="float32")
        tiny = np.float32(1e-40)
        grad = np.full((32,), tiny, dtype=np.float32)
        enc = codec.encode(0, grad)
        # H == G on first encode, so |H|+|G| = 2|H| >= bin max selects
        # every equal-magnitude element; float32 wire round-trips exactly.
        assert decode(enc).tobytes() == grad.tobytes()
        assert not codec.residual(0).any()

    def test_huge_values_clip_into_float16_range(self):
        codec = AdaCompCodec(bin_size=8)
        grad = np.full((8,), 1e6, dtype=np.float32)
        enc = codec.encode(0, grad)
        assert np.isfinite(enc.values.astype(np.float32)).all()
        # Clip error rides the residual like any rounding error.
        np.testing.assert_allclose(
            decode(enc) + codec.residual(0), grad, rtol=1e-6
        )

    def test_mixed_zero_and_live_bins(self):
        codec = AdaCompCodec(bin_size=4)
        grad = np.zeros((12,), dtype=np.float32)
        grad[5] = 1.0  # only bin 1 is live
        enc = codec.encode(0, grad)
        assert enc.indices.tolist() == [5]

    def test_unpadded_tail_never_selected(self):
        # size 10 with bin 8 pads the last bin with zeros; the pad must
        # not leak indices past the tensor.
        codec = AdaCompCodec(bin_size=8)
        grad = RNG.standard_normal(10).astype(np.float32)
        enc = codec.encode(0, grad)
        assert enc.indices.max() < 10


class TestAdaCompResiduals:
    def test_unsent_entries_accumulate_and_retry(self):
        codec = AdaCompCodec(bin_size=8)
        grad = np.array([1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1], dtype=np.float32)
        enc1 = codec.encode(0, grad)
        assert 0 in enc1.indices.tolist()
        residual = codec.residual(0)
        assert residual[1] == np.float32(0.1)
        # A zero follow-up gradient: H = residual alone; the carried 0.1s
        # now dominate their bin and get sent.
        enc2 = codec.encode(0, np.zeros(8, dtype=np.float32))
        total = decode(enc1) + decode(enc2) + codec.residual(0)
        # Conservation: sent + carried always equals the gradient sum fed
        # in (error feedback returns the float16 rounding to the residual).
        np.testing.assert_allclose(total, grad, rtol=1e-6, atol=0)

    def test_residuals_are_per_key(self):
        codec = AdaCompCodec(bin_size=8)
        codec.encode(0, np.full(8, 0.5, dtype=np.float32))
        assert codec.residual(1) is None

    def test_identical_streams_are_bitwise_deterministic(self):
        a, b = AdaCompCodec(bin_size=16), AdaCompCodec(bin_size=16)
        rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        for step in range(5):
            g1 = rng1.standard_normal(100).astype(np.float32)
            g2 = rng2.standard_normal(100).astype(np.float32)
            e1, e2 = a.encode(0, g1), b.encode(0, g2)
            assert e1.indices.tobytes() == e2.indices.tobytes()
            assert e1.values.tobytes() == e2.values.tobytes()
            assert a.residual(0).tobytes() == b.residual(0).tobytes()

    def test_reset_and_spawn_drop_state(self):
        codec = AdaCompCodec(bin_size=8)
        codec.encode(0, np.full(8, 0.5, dtype=np.float32))
        assert codec.spawn().residual(0) is None
        assert codec.spawn().bin_size == 8
        codec.reset()
        assert codec.residual(0) is None

    def test_conservation_over_many_steps(self):
        # residual + everything decoded == sum of all gradients, exactly
        # the invariant that makes AdaComp lossless-in-the-limit.
        codec = AdaCompCodec(bin_size=32)
        rng = np.random.default_rng(3)
        total_sent = np.zeros(200, dtype=np.float32)
        total_fed = np.zeros(200, dtype=np.float32)
        for _ in range(10):
            grad = (rng.standard_normal(200) * 0.01).astype(np.float32)
            total_fed += grad
            total_sent += decode(codec.encode(0, grad))
        np.testing.assert_allclose(
            total_sent + codec.residual(0), total_fed, rtol=1e-4, atol=1e-6
        )


@given(
    size=st.integers(1, 300),
    bin_size=st.integers(1, 64),
    wire=st.sampled_from(["float16", "float32"]),
    exponents=st.lists(st.integers(-40, 40), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_every_step_conserves_the_gradient_bitwise(
    size, bin_size, wire, exponents, seed
):
    """One step's error feedback loses nothing: decoded values plus the
    new residual are ``G + residual_old`` (the float32 sum ``H``) bit
    for bit, on both wires, over streams whose per-step scale runs from
    float16-subnormal to far past the float16 clip (2^-40 .. 2^40)."""
    rng = np.random.default_rng(seed)
    codec = AdaCompCodec(bin_size=bin_size, wire_dtype=wire)
    old = np.zeros(size, dtype=np.float32)
    for exponent in exponents:
        grad = (rng.standard_normal(size) * 2.0**exponent).astype(np.float32)
        want = grad + old
        got = decode(codec.encode(0, grad)) + codec.residual(0)
        assert got.tobytes() == want.tobytes()
        old = codec.residual(0).copy()


def _slot_sizes(kinds, bin_size):
    sizes = {"1": 1, "bin-1": max(bin_size - 1, 1), "bin": bin_size, "bin+1": bin_size + 1}
    return [sizes[kind] for kind, _ in kinds]


@given(
    kinds=st.lists(
        st.tuples(st.sampled_from(["1", "bin-1", "bin", "bin+1"]), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    bin_size=st.sampled_from([1, 2, 7, 16, 64]),
    wire=st.sampled_from(["float16", "float32"]),
    exponents=st.lists(st.integers(-40, 40), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_an_aligned_bucket_encodes_and_sums_as_its_tensors(
    kinds, bin_size, wire, exponents, seed
):
    """Two ranks each encode an aligned bucket once per step and, next
    to it, every tensor under its own key.  Slot by slot the bucket's
    values, offsets, bin counts and residual bytes are the tensor's,
    and the two-rank ``decode_sum`` of the buckets is the per-tensor
    sum.  Tensors are sized around the bin (1, bin-1, bin, bin+1), some
    are all zero, each may have no gradient on a rank for a step, and
    each step's scale runs from 2^-40 to 2^40."""
    rng = np.random.default_rng(seed)
    sizes = _slot_sizes(kinds, bin_size)
    spans, length = bucket_layout(tuple((n,) for n in sizes), bin_size)
    assert all(start % bin_size == 0 for start, _ in spans)
    ranks = [
        (AdaCompCodec(bin_size, wire), AdaCompCodec(bin_size, wire)) for _ in range(2)
    ]
    for exponent in exponents:
        buckets, tensors = [], []
        for bucket_codec, tensor_codec in ranks:
            bucket = np.zeros(length, dtype=np.float32)
            encs, live = [], []
            for key, ((_, zero), span, n) in enumerate(zip(kinds, spans, sizes)):
                if rng.random() < 0.2:  # no gradient on this rank this step
                    encs.append(None)
                    continue
                grad = np.zeros(n, np.float32) if zero else (
                    rng.standard_normal(n) * 2.0**exponent
                ).astype(np.float32)
                bucket[span[0] : span[1]] = grad
                live.append(span)
                encs.append(tensor_codec.encode(key, grad))
            enc = bucket_codec.encode(0, bucket, tuple(live))
            residual = bucket_codec.residual(0)
            sent_before = np.cumsum(np.concatenate([[0], enc.bin_counts]))
            for key, (start, stop) in enumerate(spans):
                first, last = start // bin_size, -(-stop // bin_size)
                counts = enc.bin_counts[first:last]
                values = enc.values[sent_before[first] : sent_before[last]]
                offsets = enc.offsets[sent_before[first] : sent_before[last]]
                if encs[key] is None:
                    assert not counts.any()
                else:
                    assert counts.tobytes() == encs[key].bin_counts.tobytes()
                    assert values.tobytes() == encs[key].values.tobytes()
                    assert offsets.tobytes() == encs[key].offsets.tobytes()
                want = tensor_codec.residual(key)
                if want is None:  # never had a gradient: the additive identity
                    want = np.full(stop - start, -0.0, dtype=np.float32)
                assert residual[start:stop].tobytes() == want.tobytes()
            buckets.append(enc)
            tensors.append(encs)
        total = decode_sum(buckets)
        for key, (start, stop) in enumerate(spans):
            want = decode_sum([encs[key] for encs in tensors])
            if want is not None:
                assert total[start:stop].tobytes() == want.tobytes()


def test_clip_error_that_float32_cannot_hold_stays_unsent():
    """|H| in [2^29, 2^30): ``H - 65504`` rounds, so sending the clipped
    value would drop an ulp; the entry waits, whole, in the residual."""
    grad = np.array([2.0**29 + 64 * 1031, 2.0**29 + 64 * 1032], dtype=np.float32)
    codec = AdaCompCodec(bin_size=1)
    enc = codec.encode(0, grad)
    assert enc.indices.tolist() == [1]
    assert codec.residual(0)[0] == grad[0]
    assert (decode(enc) + codec.residual(0)).tobytes() == grad.tobytes()


class TestWireAccounting:
    def test_sparse_wire_bytes_match_payload(self):
        codec = AdaCompCodec(bin_size=64)
        grad = RNG.standard_normal((32, 16)).astype(np.float32)
        enc = codec.encode(0, grad)
        assert enc.wire_bytes == (
            HEADER_BYTES
            + enc.values.nbytes
            + enc.offsets.nbytes
            + enc.bin_counts.nbytes
        )
        assert enc.dense_bytes == grad.nbytes

    def test_bucket_dense_bytes_count_live_elements_only(self):
        spans, length = bucket_layout(((3, 5), (7,), (2,)), 16)
        assert spans == ((0, 15), (16, 23), (32, 34)) and length == 48
        bucket = np.zeros(length, dtype=np.float32)
        for start, stop in spans:
            bucket[start:stop] = RNG.standard_normal(stop - start)
        enc = AdaCompCodec(bin_size=16).encode(0, bucket, (spans[0], spans[2]))
        assert enc.dense_bytes == 4 * (15 + 2)  # no padding, no dead slot
        assert enc.wire_bytes == (
            HEADER_BYTES + enc.values.nbytes + enc.offsets.nbytes + enc.bin_counts.nbytes
        )
        assert enc.bin_counts[1] == 0  # the dead slot sends nothing

    def test_wire_is_four_bytes_per_sent_element(self):
        codec = AdaCompCodec(bin_size=256)
        grad = RNG.standard_normal(4096).astype(np.float32)
        enc = codec.encode(0, grad)
        assert enc.values.dtype == np.float16
        assert enc.offsets.dtype == np.uint16
        assert enc.bin_counts.dtype == np.uint16
        per_element = enc.values.itemsize + enc.offsets.itemsize
        assert per_element == 4

    def test_steady_state_compresses_hard(self):
        # The first encode on dense noise is the worst case (H == G, so
        # |H|+|G| = 2|H| selects ~15% of elements); the residual-driven
        # selection thins out over steps.  Assert the steady-state step
        # ratio, which is what BENCH_dist measures and the paper quotes.
        codec = AdaCompCodec(bin_size=256)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(12):
            grad = (rng.standard_normal(64 * 64 * 9) * 0.01).astype(np.float32)
            enc = codec.encode(0, grad)
            ratios.append(enc.dense_bytes / enc.wire_bytes)
        assert ratios[0] > 5  # even the cold-start encode clears 5x
        assert ratios[-1] > 20  # steady state is far sparser
        assert ratios[-1] > 2 * ratios[0]


class TestDecodeSum:
    def test_rank_ordered_sum_skips_none(self):
        idc = IdentityCodec()
        a = RNG.standard_normal(10).astype(np.float32)
        b = RNG.standard_normal(10).astype(np.float32)
        total = decode_sum([idc.encode(0, a), None, idc.encode(0, b)])
        assert total.tobytes() == (a + b).tobytes()

    def test_all_none_is_none(self):
        assert decode_sum([None, None]) is None

    def test_single_contribution_is_bitwise(self):
        a = RNG.standard_normal(10).astype(np.float32)
        total = decode_sum([IdentityCodec().encode(0, a)])
        assert total.tobytes() == a.tobytes()


class TestResolveCodec:
    def test_names_and_instances(self):
        assert isinstance(resolve_codec(None), IdentityCodec)
        assert isinstance(resolve_codec("identity"), IdentityCodec)
        assert isinstance(resolve_codec("adacomp"), AdaCompCodec)
        codec = AdaCompCodec(bin_size=64)
        assert resolve_codec(codec) is codec

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_codec("zstd")
        with pytest.raises(TypeError):
            resolve_codec(42)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Codec().encode(0, np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError):
            AdaCompCodec(bin_size=0)
