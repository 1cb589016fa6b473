"""Gradient codecs for data-parallel training (wire format + AdaComp).

A :class:`Codec` turns one parameter's gradient into an
:class:`EncodedGrad` — the unit that crosses the transport — and back.
Two implementations ship:

* :class:`IdentityCodec` — dense float32 pass-through.  Decode returns
  the exact bytes that went in, which is what makes the
  ``LocalTransport`` ≡ ``ProcessTransport`` bitwise-parity gate of
  ``repro.dist`` enforceable end to end.
* :class:`AdaCompCodec` — the adaptive residual-sparsification scheme of
  AdaComp (Chen et al., arXiv 1712.02679).  Per encode call, the carried
  residual is folded into the gradient (``H = G + R``), ``H`` is cut
  into fixed-size bins, and an element is *sent* when
  ``|H_i| + |G_i| >= max_bin |H|`` — self-tuning per bin, so layers and
  training phases with different gradient scales need no global
  threshold knob.  Sent entries ship in a deterministic compact format
  — ``float16`` values (the rounding error is fed back into the
  residual, so nothing is lost) addressed by ``uint16`` bin-local
  offsets — and are replaced in the residual by their float16 rounding
  error; unsent entries accumulate locally and retry next round.
  Typical steady-state compression on conv/FC gradients is ~40–200×
  (``T/k`` for ``k`` sends per bin of ``T`` at 4 wire bytes per sent
  element).

Every encoded payload knows its own ``wire_bytes`` and ``dense_bytes``,
so compression ratios reported by ``CommStats`` are accounting of the
actual payloads, not estimates.

Decoding is stateless and codec-independent (module-level
:func:`decode`); only *encoding* carries per-parameter residual state.
:func:`decode_sum` is the shared reduction kernel: every rank — driver
and workers alike — sums decoded contributions in rank order through the
same accumulation loop, which is what makes the data-parallel all-reduce
bitwise-deterministic across transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: Fixed per-payload framing cost charged to ``wire_bytes``: shape/kind
#: metadata and the value/index counts a real wire format would carry.
HEADER_BYTES = 16


@dataclass
class EncodedGrad:
    """One parameter gradient in wire form.

    ``kind="dense"`` carries the flattened float32 values outright;
    ``kind="sparse"`` carries the AdaComp compact format — selected
    values (``float16`` by default, rounding error fed back into the
    sender's residual) addressed by ``uint16`` *bin-local* offsets plus
    a ``uint16`` per-bin send count, ~4 bytes per sent element instead
    of the 8 a float32-value + uint32-global-index layout would cost.
    ``shape`` restores the original tensor layout on decode.
    """

    shape: tuple[int, ...]
    kind: str  # "dense" | "sparse"
    values: np.ndarray  # flat; float32 (dense) or wire dtype (sparse)
    offsets: Optional[np.ndarray] = None  # uint16, bin-local positions
    bin_counts: Optional[np.ndarray] = None  # uint16, sends per bin
    bin_size: int = 0

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
        """Bytes the uncompressed dense gradient would occupy."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(np.float32).itemsize

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
    count = 1
    for dim in enc.shape:
        count *= int(dim)
    out = np.zeros(count, dtype=np.float32)
    indices = enc.indices
    if indices is not None and indices.size:
        out[indices] = enc.values.astype(np.float32)
    return out.reshape(enc.shape)


def _ordered_sum(arrays: Iterable[Optional[np.ndarray]]) -> Optional[np.ndarray]:
    """Sum arrays in iteration order, skipping ``None``; ``None`` if all
    are.  The single accumulation loop shared by driver and workers —
    float32 addition is order-sensitive, so bitwise cross-rank agreement
    requires everyone to add in the same (rank) order."""
    total: Optional[np.ndarray] = None
    for array in arrays:
        if array is None:
            continue
        total = array.copy() if total is None else total + array
    return total


def decode_sum(encoded: Sequence[Optional[EncodedGrad]]) -> Optional[np.ndarray]:
    """Decode + rank-ordered sum of one parameter's contributions.

    ``None`` entries (inactive ranks, grad-free parameters) are skipped;
    returns ``None`` when no rank contributed, mirroring the
    ``param.grad is None`` convention the optimizers already honor.
    """
    return _ordered_sum(decode(enc) if enc is not None else None for enc in encoded)


class Codec:
    """Gradient encoder: ``encode`` per parameter key, stateful residuals.

    ``key`` identifies the parameter across calls (the data-parallel
    strategy uses the parameter's index in ``optimizer.parameters``), so
    codecs with carry-over state — AdaComp's residuals — accumulate per
    parameter.  :meth:`spawn` returns a fresh same-configuration
    instance with empty state; every rank gets its own spawn so
    residual state is strictly rank-local, exactly as AdaComp specifies.
    """

    name = "codec"

    def encode(self, key: int, grad: np.ndarray) -> EncodedGrad:
        raise NotImplementedError

    def decode(self, enc: EncodedGrad) -> np.ndarray:
        """Instance-level alias of the stateless :func:`decode`."""
        return decode(enc)

    def spawn(self) -> "Codec":
        """A fresh codec with this one's configuration and no state."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop accumulated state (residuals); no-op for stateless codecs."""


class IdentityCodec(Codec):
    """Dense pass-through: decode(encode(g)) is bitwise ``g``."""

    name = "identity"

    def encode(self, key: int, grad: np.ndarray) -> EncodedGrad:
        flat = np.ascontiguousarray(grad, dtype=np.float32).reshape(-1).copy()
        return EncodedGrad(shape=tuple(grad.shape), kind="dense", values=flat)

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

    1. ``H = G + residual[k]`` (residual starts at zero),
    2. split ``|H|`` into bins of ``bin_size``; each bin's threshold is
       its own ``max |H|``,
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

    name = "adacomp"

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

    def encode(self, key: int, grad: np.ndarray) -> EncodedGrad:
        flat = np.ascontiguousarray(grad, dtype=np.float32).reshape(-1)
        residual = self._residuals.get(key)
        h = flat + residual if residual is not None else flat.copy()
        size = h.size
        bins = -(-size // self.bin_size)
        padded = bins * self.bin_size
        h_abs = np.abs(h)
        g_abs = np.abs(flat)
        if padded != size:
            pad = np.zeros(padded - size, dtype=np.float32)
            h_abs = np.concatenate([h_abs, pad])
            g_abs = np.concatenate([g_abs, pad])
        bin_max = h_abs.reshape(bins, self.bin_size).max(axis=1)
        threshold = np.repeat(bin_max, self.bin_size)
        selected = (h_abs + g_abs >= threshold) & (threshold > 0)
        sel = np.flatnonzero(selected[:size])
        exact = h[sel]
        if self.wire_dtype == "float16":
            values = np.clip(exact, -self._F16_MAX, self._F16_MAX).astype(
                np.float16
            )
            sent = values.astype(np.float32)
            # A clipped value's error H - 65504 is not always a float32
            # (|H| in [2^29, 2^30) loses an ulp): such an entry stays
            # unsent, whole, in the residual.
            keep = ~(
                (np.abs(exact) > self._F16_MAX) & (sent + (exact - sent) != exact)
            )
            if not keep.all():
                sel, exact, values = sel[keep], exact[keep], values[keep]
        else:
            values = exact.copy()
        # Error feedback: what the wire cannot represent stays local and
        # retries next round — exact zero for a float32 wire — so the
        # decoded values plus the new residual are H, bit for bit.
        h[sel] = exact - values.astype(np.float32)
        self._residuals[key] = h
        offsets = (sel % self.bin_size).astype(np.uint16)
        bin_counts = np.bincount(sel // self.bin_size, minlength=bins).astype(
            np.uint16
        )
        return EncodedGrad(
            shape=tuple(grad.shape),
            kind="sparse",
            values=values,
            offsets=offsets,
            bin_counts=bin_counts,
            bin_size=self.bin_size,
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
