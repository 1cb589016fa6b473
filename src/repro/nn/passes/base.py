"""Pass protocol, fold planning and version-keyed fold caching.

A *pass* recognizes a contiguous run of layers inside a ``Sequential``
that a forward-only (no-grad) execution can replace with one cheaper
op — conv+BN collapsing into a single rescaled convolution, an
activation applied in place on its producer's output, and so on.  The
:class:`PassPipeline` walks the layer list once per no-grad forward and
produces a *plan*: the original modules interleaved with
:class:`FoldedOp` replacements.  Matching is structural and cheap
(isinstance checks, mode/hook eligibility); the expensive part — folded
weights derived from layer parameters — is computed inside the fold's
``run`` and memoized in a :class:`FoldCache` keyed on the parameters'
mutation versions, so any optimizer step (a Phase-GP predicted update
included), ``load_state_dict`` or running-stats refresh invalidates it
on the next lookup.

Backends opt in by returning a pipeline from
:meth:`~repro.nn.backend.base.Backend.fold_pipeline`; the reference
NumPy backend returns ``None`` and keeps the exact layer-by-layer
semantics.  See DESIGN.md §10 for the walkthrough of adding a fold.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from ..module import NO_GRAD, Module


class FoldedOp:
    """A planned replacement for a contiguous run of layers.

    ``run(x)`` computes what the replaced layers would have produced in
    a forward-only pass; :meth:`mark_no_grad` then leaves each replaced
    layer exactly as a plain no-grad forward would have — ``_saved``
    set to the ``NO_GRAD`` sentinel (so ``backward`` raises the precise
    error) and a releasable saved value returned to its pool.
    """

    __slots__ = ("layers", "run", "pass_name")

    def __init__(
        self,
        layers: Sequence[Module],
        run: Callable[[np.ndarray], np.ndarray],
        pass_name: str,
    ) -> None:
        self.layers = tuple(layers)
        self.run = run
        self.pass_name = pass_name

    def mark_no_grad(self) -> None:
        for layer in self.layers:
            layer._clear_cache(NO_GRAD)

    def __repr__(self) -> str:
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"FoldedOp({self.pass_name}: {inner})"


class Pass:
    """One rewrite rule over the module graph.

    ``match(layers, index)`` inspects the run starting at ``index`` and
    returns a :class:`FoldedOp` covering however many layers it folds,
    or ``None``.  Matching must be side-effect free: the pipeline calls
    it on every no-grad forward (eligibility — train/eval mode, hooks —
    changes between batches), so anything expensive belongs in the
    returned op's ``run`` behind a :class:`FoldCache`.
    """

    name: str = "abstract"

    def match(self, layers: Sequence[Module], index: int) -> Optional[FoldedOp]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FoldCache:
    """Version-guarded cache of arrays derived from layer parameters.

    Entries key on the ``id()`` of the source layers and store the
    version tuple they were computed from plus weakrefs to the layers
    themselves: a lookup hits only when the versions still match *and*
    the weakrefs still point at those exact layers (``id()`` reuse after
    GC can never serve a stale fold).  Dead entries evict themselves via
    weakref callbacks, so the cache cannot grow with discarded models.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}
        # A miss is any lookup that recomputes (absent, version-stale,
        # or id reuse), which is exactly the fold work the caller pays
        # for.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def metrics(self):
        """``repro_passes_fold_*`` rows (``repro.obs`` pulls them; the
        attaching side adds the ``pass_name`` label)."""
        return [
            ("repro_passes_fold_hits", "counter", self.hits, {}),
            ("repro_passes_fold_misses", "counter", self.misses, {}),
            ("repro_passes_fold_entries", "gauge", len(self), {}),
        ]

    def lookup(self, layers: Sequence[Module], versions: tuple):
        key = tuple(id(layer) for layer in layers)
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] == versions
            and all(ref() is layer for ref, layer in zip(entry[2], layers))
        ):
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store(self, layers: Sequence[Module], versions: tuple, value):
        key = tuple(id(layer) for layer in layers)
        evict = lambda _ref, key=key: self._entries.pop(key, None)  # noqa: E731
        self._entries[key] = (
            versions,
            value,
            tuple(weakref.ref(layer, evict) for layer in layers),
        )
        return value

    def clear(self) -> None:
        self._entries.clear()


class PassPipeline:
    """An ordered set of passes applied greedily, first match wins.

    ``plan`` walks the layer list left to right; at each position the
    passes are tried in registration order and the first match consumes
    its layers.  Pass order therefore encodes priority — register the
    longest/most-profitable patterns first so e.g. conv+BN+ReLU wins
    over BN+ReLU at the shared BatchNorm position.
    """

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = tuple(passes)

    def plan(self, layers: Sequence[Module]) -> Optional[list]:
        """Fold plan for ``layers``: modules interleaved with
        :class:`FoldedOp` entries, or ``None`` when nothing matched (the
        caller keeps its plain loop, paying zero overhead)."""
        plan: list = []
        folded = False
        index, count = 0, len(layers)
        while index < count:
            op = None
            for pipeline_pass in self.passes:
                op = pipeline_pass.match(layers, index)
                if op is not None:
                    break
            if op is not None:
                plan.append(op)
                index += len(op.layers)
                folded = True
            else:
                plan.append(layers[index])
                index += 1
        return plan if folded else None

    def clear_caches(self) -> None:
        """Drop every pass's precomputed fold arrays."""
        for pipeline_pass in self.passes:
            cache = getattr(pipeline_pass, "cache", None)
            if cache is not None:
                cache.clear()

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassPipeline([{names}])"
