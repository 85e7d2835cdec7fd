"""Declarative search space over :class:`TensaurusConfig` fields.

A :class:`ConfigSpace` is a dict of config-field-name -> candidate-value
tuples plus validity constraints (predicates over the *realized* config, so
they can reference derived quantities like ``mac_units``). It owns the one
operation the tuner needs and nothing more: **deterministic enumeration** —
the Cartesian product in sorted field order with values in declaration
order, filtered by the constraints. Every consumer (tuner, exhaustive-grid
baseline, tests) sees the same point list in the same order.

Spaces are cheap descriptions; nothing is simulated here. The paper's
evaluated design point is always reachable as the empty-override dict
(``{}`` is *not* part of a space — the tuner measures the base config
separately so a search can never return something worse than the paper's
design).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.config import TensaurusConfig
from repro.util.errors import ConfigError

#: A validity predicate over a realized config. Named functions (not
#: lambdas) keep spaces picklable and their reprs meaningful.
Constraint = Callable[[TensaurusConfig], bool]

#: Enumeration guard: spaces larger than this are refused, not listed.
MAX_ENUM = 1_000_000


def first_col_double(config: TensaurusConfig) -> bool:
    """The first SPM column holds two operand tiles (Section 5.2.3), so a
    consistent design point doubles it relative to the other columns."""
    return config.spm_first_col_kb == 2 * config.spm_kb


class max_mac_units:  # noqa: N801 — reads as a constraint factory
    """Constraint: at most ``limit`` scalar multipliers (iso-area-ish
    searches that must not "win" by simply building a bigger PE array)."""

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)

    def __call__(self, config: TensaurusConfig) -> bool:
        return config.mac_units <= self.limit

    def __repr__(self) -> str:
        return f"max_mac_units({self.limit})"


class ConfigSpace:
    """An ordered, constrained, seeded-samplable config space."""

    def __init__(
        self,
        params: Mapping[str, Sequence],
        constraints: Sequence[Constraint] = (),
        base: Optional[TensaurusConfig] = None,
    ) -> None:
        self.base = base if base is not None else TensaurusConfig()
        valid = tuple(f.name for f in fields(TensaurusConfig))
        if not params:
            raise ConfigError("empty parameter space")
        clean: Dict[str, Tuple] = {}
        for name in sorted(params):
            if name not in valid:
                raise ConfigError(
                    f"unknown config field {name!r}; valid fields: "
                    + ", ".join(valid)
                )
            values = tuple(params[name])
            if not values:
                raise ConfigError(f"field {name!r} has no candidate values")
            if len(set(map(repr, values))) != len(values):
                raise ConfigError(f"field {name!r} has duplicate values")
            clean[name] = values
        self.params = clean
        self.constraints = tuple(constraints)
        self._points: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.params)

    @property
    def raw_size(self) -> int:
        """Product of the value-list lengths, before constraint filtering."""
        return math.prod(len(v) for v in self.params.values())

    @property
    def size(self) -> int:
        """Number of *valid* points (constraints applied)."""
        return len(self.points())

    def _realize(self, point: Dict[str, object]) -> TensaurusConfig:
        return self.base.scaled(**point)

    def is_valid(self, point: Dict[str, object]) -> bool:
        try:
            config = self._realize(point)
        except ConfigError:
            return False
        return all(c(config) for c in self.constraints)

    def points(self) -> List[Dict[str, object]]:
        """All valid points, in deterministic enumeration order (cached)."""
        if self._points is None:
            if self.raw_size > MAX_ENUM:
                raise ConfigError(
                    f"space has {self.raw_size} raw points (> {MAX_ENUM}); "
                    "too many to enumerate"
                )
            names = self.names
            self._points = [
                point
                for combo in itertools.product(
                    *(self.params[n] for n in names)
                )
                if self.is_valid(point := dict(zip(names, combo)))
            ]
            if not self._points:
                raise ConfigError("constraints reject every point in space")
        return self._points

    def configs(self) -> List[Tuple[Dict[str, object], TensaurusConfig]]:
        """``(params, realized config)`` for every valid point."""
        return [(p, self._realize(p)) for p in self.points()]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        dims = "x".join(str(len(v)) for v in self.params.values())
        cons = f", {len(self.constraints)} constraints" if self.constraints else ""
        return f"ConfigSpace({', '.join(self.names)}; {dims}{cons})"


def default_space(base: Optional[TensaurusConfig] = None) -> ConfigSpace:
    """The standard tuning space around the paper's design point.

    Sweeps the knobs the ablations identified as cycle-relevant — lane
    count (PE rows), SIMD width, SPM bank count, SPM/MSU sizing — with the
    first-column SPM tied to double the others (it holds two operand
    tiles). 972 raw points, 324 valid.
    """
    return ConfigSpace(
        {
            "rows": (4, 8, 16),
            "vlen": (2, 4, 8),
            "spm_banks": (4, 8, 16, 32),
            "spm_kb": (4, 16, 64),
            "spm_first_col_kb": (8, 32, 128),
            "msu_kb": (32, 128, 512),
        },
        constraints=(first_col_double,),
        base=base,
    )


def quick_space(base: Optional[TensaurusConfig] = None) -> ConfigSpace:
    """A 16-point space for smoke tests and tiny-budget CLI runs."""
    return ConfigSpace(
        {
            "rows": (8, 16),
            "spm_banks": (8, 32),
            "spm_kb": (16, 64),
            "msu_kb": (128, 512),
        },
        base=base,
    )
