"""Gradient codecs for data-parallel training (wire format + AdaComp).

A :class:`Codec` turns a gradient into an :class:`EncodedGrad` — the
unit that crosses the transport — and back.  A data-parallel rank
encodes all of its parameters' gradients as one flat bucket
(:func:`bucket_layout`) whose slots start at multiples of the codec's
``bin_size``, so no AdaComp bin crosses two parameters and the bucket
encodes, slot by slot, bitwise as each tensor would on its own.

* :class:`IdentityCodec` — dense float32 pass-through: decode returns
  the exact bytes that went in, which makes the ``LocalTransport`` ≡
  ``ProcessTransport`` bitwise-parity gate enforceable end to end.
* :class:`AdaCompCodec` — AdaComp's adaptive residual sparsification
  (Chen et al., arXiv 1712.02679): self-tuning per-bin thresholds,
  ``float16`` values at ``uint16`` bin-local offsets (~4 wire bytes per
  sent element), rounding error fed back into the residual.

Every encoded payload knows its own ``wire_bytes`` and ``dense_bytes``,
so compression ratios reported by ``CommStats`` are accounting of the
actual payloads, not estimates.

Decoding is stateless and codec-independent (module-level
:func:`decode`); only *encoding* carries residual state, per key.
:func:`decode_sum` is the shared reduction kernel: every rank — driver
and workers alike — sums decoded contributions in rank order through the
same accumulation loop, which is what makes the data-parallel all-reduce
bitwise-deterministic across transports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: Fixed per-payload framing cost charged to ``wire_bytes``: shape/kind
#: metadata, the live-slot mask and the value/index counts a real wire
#: format would carry.
HEADER_BYTES = 16

#: ``(start, stop)`` element ranges of a bucket's slots.
Spans = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=64)
def bucket_layout(shapes: tuple[tuple[int, ...], ...], align: int) -> tuple[Spans, int]:
    """Each parameter's ``(start, stop)`` slot in one flat bucket, and
    the bucket's length: every slot starts at a multiple of ``align`` (a
    codec's ``bin_size``) and zero padding fills the gap.  Cached per
    (shapes, alignment), so ranks rebuilt per batch share one layout."""
    spans, start = [], 0
    for shape in shapes:
        count = math.prod(shape)
        spans.append((start, start + count))
        start += -(-count // align) * align
    return tuple(spans), start


@dataclass
class EncodedGrad:
    """One gradient (a tensor, or a rank's whole bucket) in wire form.

    ``kind="dense"`` carries the flattened float32 values outright;
    ``kind="sparse"`` carries the AdaComp compact format — selected
    values (``float16`` by default, rounding error fed back into the
    sender's residual) addressed by ``uint16`` *bin-local* offsets plus
    a ``uint16`` per-bin send count, ~4 bytes per sent element instead
    of the 8 a float32-value + uint32-global-index layout would cost.
    ``shape`` restores the original tensor layout on decode.  ``live``
    names the bucket slots that carry a gradient (``None``: the whole
    array is one live tensor); what lies outside them is meaningless.
    """

    shape: tuple[int, ...]
    kind: str  # "dense" | "sparse"
    values: np.ndarray  # flat; float32 (dense) or wire dtype (sparse)
    offsets: Optional[np.ndarray] = None  # uint16, bin-local positions
    bin_counts: Optional[np.ndarray] = None  # uint16, sends per bin
    bin_size: int = 0
    live: Optional[Spans] = None

    @property
    def wire_bytes(self) -> int:
        """Bytes this payload occupies on the wire (header + arrays)."""
        total = HEADER_BYTES + self.values.nbytes
        if self.offsets is not None:
            total += self.offsets.nbytes
        if self.bin_counts is not None:
            total += self.bin_counts.nbytes
        return total

    @property
    def dense_bytes(self) -> int:
        """Bytes the uncompressed live gradients would occupy (slot
        padding excluded)."""
        if self.live is None:
            return math.prod(self.shape) * 4
        return sum(stop - start for start, stop in self.live) * 4

    @property
    def indices(self) -> Optional[np.ndarray]:
        """Global flat positions reconstructed from the bin-local wire
        layout (``None`` for dense payloads)."""
        if self.offsets is None or self.bin_counts is None:
            return None
        starts = (
            np.arange(self.bin_counts.size, dtype=np.int64) * self.bin_size
        )
        return (
            np.repeat(starts, self.bin_counts) + self.offsets.astype(np.int64)
        ).astype(np.uint32)


def decode(enc: EncodedGrad) -> np.ndarray:
    """Reconstruct the (lossy, for sparse codecs) dense gradient.

    Stateless: any rank can decode any rank's payload, which is what
    lets every rank recompute the identical reduced gradient from the
    full set of encoded contributions instead of shipping dense sums.
    """
    if enc.kind == "dense":
        return enc.values.reshape(enc.shape).copy()
    out = np.zeros(math.prod(enc.shape), dtype=np.float32)
    indices = enc.indices
    if indices is not None and indices.size:
        out[indices] = enc.values.astype(np.float32)
    return out.reshape(enc.shape)


def _ordered_sum(arrays: Iterable[np.ndarray]) -> Optional[np.ndarray]:
    """Sum arrays in iteration order; ``None`` if there are none.  The
    single accumulation loop shared by driver and workers — float32
    addition is order-sensitive, so bitwise cross-rank agreement
    requires everyone to add in the same (rank) order."""
    total: Optional[np.ndarray] = None
    for array in arrays:
        total = array.copy() if total is None else total + array
    return total


def decode_sum(encoded: Sequence[Optional[EncodedGrad]]) -> Optional[np.ndarray]:
    """Decode + rank-ordered sum of one gradient's contributions.

    ``None`` entries (inactive ranks) are skipped; returns ``None`` when
    no rank contributed, mirroring the ``param.grad is None`` convention
    the optimizers already honor.  A bucket slot live on only some
    ranks sums only theirs, so every slot is bitwise the sum of that
    parameter's own contributions.
    """
    present = [enc for enc in encoded if enc is not None]
    decoded = [decode(enc) for enc in present]
    total = _ordered_sum(decoded)
    if any(enc.live != present[0].live for enc in present[1:]):
        for start, stop in sorted(set().union(*(enc.live for enc in present))):
            total.reshape(-1)[start:stop] = _ordered_sum(
                array.reshape(-1)[start:stop]
                for array, enc in zip(decoded, present)
                if (start, stop) in enc.live
            )
    return total


class Codec:
    """Gradient encoder: ``encode`` per key, stateful residuals.

    ``key`` identifies the gradient across calls (a rank's bucket is key
    0), so AdaComp's residuals accumulate per key.  ``live`` lists the
    bucket slots holding a gradient this call (``None``: all of
    ``grad``); the rest is neither sent nor folded into the residual.
    ``bin_size`` is the alignment a bucket's slots need.  :meth:`spawn`
    returns a fresh instance with empty state; every rank gets its own,
    so residual state is strictly rank-local, as AdaComp specifies.
    """

    bin_size = 1

    def encode(self, key: int, grad: np.ndarray, live: Optional[Spans] = None) -> EncodedGrad:
        raise NotImplementedError

    def spawn(self) -> "Codec":
        """A fresh codec with this one's configuration and no state."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop accumulated state (residuals); no-op for stateless codecs."""


class IdentityCodec(Codec):
    """Dense pass-through: decode(encode(g)) is bitwise ``g``."""

    def encode(self, key: int, grad: np.ndarray, live: Optional[Spans] = None) -> EncodedGrad:
        flat = np.ascontiguousarray(grad, dtype=np.float32).reshape(-1).copy()
        return EncodedGrad(shape=tuple(grad.shape), kind="dense", values=flat, live=live)

    def spawn(self) -> "IdentityCodec":
        return IdentityCodec()


class AdaCompCodec(Codec):
    """AdaComp adaptive residual sparsification (arXiv 1712.02679).

    Parameters
    ----------
    bin_size:
        Elements per self-tuning bin (the paper's ``T``; 256 hits the
        paper's sweet spot for conv+FC layers).  Smaller bins send more
        per step (lower ratio, lower staleness); larger bins compress
        harder.  Capped at 65535 so bin-local offsets and per-bin send
        counts both fit ``uint16`` on the wire.
    wire_dtype:
        Dtype of sent values on the wire: ``"float16"`` (default; the
        float16 rounding error of every sent value is *fed back into
        the residual*, so the scheme stays lossless-in-the-limit) or
        ``"float32"`` (exact values, larger payload).

    Encoding a gradient ``G`` for key ``k``:

    1. ``H = G + residual[k]`` (residual starts at zero; outside the
       ``live`` slots ``H`` is the residual itself),
    2. split ``|H|`` into bins of ``bin_size``; each bin's threshold is
       its own ``max |H|`` (zero for a bin of no live slot),
    3. send index ``i`` iff ``|H_i| + |G_i| >= threshold(bin of i)``
       *and* the threshold is positive (an all-zero bin sends nothing —
       without the guard the ``>=`` would select the entire bin),
    4. ``residual[k] = H`` with every sent entry replaced by its wire
       rounding error (zero under ``float32``), so decoded values plus
       the new residual are ``H`` bit for bit; a clipped entry whose
       clip error float32 cannot hold exactly is not sent.

    Selection, offsets and values are pure deterministic ``numpy`` on
    the local gradient — same input, same residual, same payload — so
    two ranks (or two transports) fed identical shards stay bitwise
    aligned.
    """

    #: float16 saturates at 65504; sent values are clipped into range and
    #: the clip error rides the residual like any other rounding error.
    _F16_MAX = np.float32(65504.0)

    def __init__(self, bin_size: int = 256, wire_dtype: str = "float16") -> None:
        if not 1 <= bin_size <= 65535:
            raise ValueError(
                f"bin_size must be in [1, 65535] (uint16 wire offsets), "
                f"got {bin_size}"
            )
        if wire_dtype not in ("float16", "float32"):
            raise ValueError(
                f"wire_dtype must be 'float16' or 'float32', got {wire_dtype!r}"
            )
        self.bin_size = int(bin_size)
        self.wire_dtype = wire_dtype
        self._residuals: dict[int, np.ndarray] = {}

    def encode(self, key: int, grad: np.ndarray, live: Optional[Spans] = None) -> EncodedGrad:
        flat = np.ascontiguousarray(grad, dtype=np.float32).reshape(-1)
        residual = self._residuals.get(key)
        h = flat + residual if residual is not None else flat.copy()
        size, step = h.size, self.bin_size
        bins = -(-size // step)
        dead = np.full(bins, live is not None)
        for start, stop in live or ():
            dead[start // step : -(-stop // step)] = False
        if dead.any():
            # A slot without a gradient keeps its residual bit for bit
            # (-0.0, the additive identity, where there is none yet).
            gone = np.repeat(dead, step)[:size]
            h[gone] = residual[gone] if residual is not None else np.float32(-0.0)
        # |H| then |H| + |G| per bin; a partial last bin's pad is zero.
        score = np.zeros(bins * step, dtype=np.float32)
        np.abs(h, out=score[:size])
        bin_max = score.reshape(bins, step).max(axis=1)
        bin_max[dead] = 0.0
        score[:size] += np.abs(flat)
        selected = score.reshape(bins, step) >= bin_max[:, None]
        selected[~(bin_max > 0)] = False
        sel = np.flatnonzero(selected)
        exact = h[sel]
        if self.wire_dtype == "float16":
            values = np.clip(exact, -self._F16_MAX, self._F16_MAX).astype(
                np.float16
            )
            sent = values.astype(np.float32)
            # A clipped value's error H - 65504 is not always a float32
            # (|H| in [2^29, 2^30) loses an ulp): such an entry stays
            # unsent, whole, in the residual.
            clipped = np.abs(exact) > self._F16_MAX
            if clipped.any():
                keep = ~(clipped & (sent + (exact - sent) != exact))
                sel, exact, values, sent = sel[keep], exact[keep], values[keep], sent[keep]
        else:
            values = sent = exact.copy()
        # Error feedback: what the wire cannot represent stays local and
        # retries next round — exact zero for a float32 wire — so the
        # decoded values plus the new residual are H, bit for bit.
        h[sel] = exact - sent
        self._residuals[key] = h
        offsets = (sel % step).astype(np.uint16)
        bin_counts = np.bincount(sel // step, minlength=bins).astype(np.uint16)
        return EncodedGrad(
            shape=tuple(grad.shape),
            kind="sparse",
            values=values,
            offsets=offsets,
            bin_counts=bin_counts,
            bin_size=self.bin_size,
            live=live,
        )

    def residual(self, key: int) -> Optional[np.ndarray]:
        """The carried (unsent) residual for ``key``; ``None`` before the
        first encode.  Exposed for tests and drift diagnostics."""
        return self._residuals.get(key)

    def spawn(self) -> "AdaCompCodec":
        return AdaCompCodec(bin_size=self.bin_size, wire_dtype=self.wire_dtype)

    def reset(self) -> None:
        self._residuals.clear()


def resolve_codec(spec) -> Codec:
    """Resolve a codec spec: name (``"identity"``/``"adacomp"``), a
    :class:`Codec` instance (returned as-is), or ``None`` (identity)."""
    if spec is None:
        return IdentityCodec()
    if isinstance(spec, Codec):
        return spec
    if isinstance(spec, str):
        if spec == "identity":
            return IdentityCodec()
        if spec == "adacomp":
            return AdaCompCodec()
        raise ValueError(
            f"unknown codec {spec!r}; expected 'identity', 'adacomp', "
            "or a Codec instance"
        )
    raise TypeError(f"cannot resolve codec from {type(spec).__name__}")
