"""Search-space primitives for schedule search.

A :class:`SearchSpace` maps parameter names to option tuples and
enumerates their full cartesian grid, in a fixed order, so a search is
the same list of trials every time it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping


def _freeze(value: Any) -> Any:
    """Lists become tuples so grid configs hash/compare like literals."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True, init=False)
class Grid:
    """An explicit finite value set, enumerated in order by the grid."""

    options: tuple

    def __init__(self, *options: Any) -> None:
        if len(options) == 1 and isinstance(options[0], (list, tuple)):
            options = tuple(options[0])
        if not options:
            raise ValueError("Grid needs at least one option")
        object.__setattr__(self, "options", tuple(_freeze(o) for o in options))


class SearchSpace:
    """Named parameter option sets.  A :class:`Grid` contributes its
    options; any other value (scalar, tuple, ladder) is one constant
    passed through to every configuration — a bare sequence stays one
    value, so ``(9, 1)`` is the ratio ``(9, 1)``, never a two-option
    grid over ``9`` and ``1``.

    Example::

        space = SearchSpace({
            "kind": "adaptive",                      # fixed
            "final_ratio": (9, 1),                   # fixed (stays a pair)
            "threshold_scale": Grid(1.0, 4.0, 16.0), # searched
            "warmup_epochs": Grid(4, 6),             # searched
        })
    """

    def __init__(self, params: Mapping[str, Any]) -> None:
        if not params:
            raise ValueError("search space needs at least one parameter")
        self.params: dict[str, tuple] = {
            name: value.options if isinstance(value, Grid) else (_freeze(value),)
            for name, value in params.items()
        }

    def grid(self) -> Iterator[dict[str, Any]]:
        """Every configuration of the cartesian grid, in deterministic
        (first parameter slowest) order."""
        for combo in itertools.product(*self.params.values()):
            yield dict(zip(self.params, combo))
