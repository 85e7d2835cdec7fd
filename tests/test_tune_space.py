"""Tests for the declarative config search space."""

import pytest

from repro.sim.config import TensaurusConfig
from repro.tune import (
    ConfigSpace,
    default_space,
    first_col_double,
    max_mac_units,
    quick_space,
)
from repro.tune.space import MAX_ENUM
from repro.util.errors import ConfigError


class TestValidation:
    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config field 'rowz'"):
            ConfigSpace({"rowz": (4, 8)})

    def test_empty_space(self):
        with pytest.raises(ConfigError, match="empty parameter space"):
            ConfigSpace({})

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="no candidate values"):
            ConfigSpace({"rows": ()})

    def test_duplicate_values(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ConfigSpace({"rows": (4, 4)})

    def test_constraints_reject_all(self):
        space = ConfigSpace(
            {"rows": (4, 8)}, constraints=(lambda c: False,)
        )
        with pytest.raises(ConfigError, match="reject every point"):
            space.points()

    def test_invalid_configs_filtered_not_raised(self):
        # rows=0 violates TensaurusConfig validation; the space silently
        # drops the point instead of blowing up enumeration.
        space = ConfigSpace({"rows": (0, 8)})
        assert space.points() == [{"rows": 8}]


class TestEnumeration:
    def test_sorted_field_order(self):
        space = ConfigSpace({"vlen": (2, 4), "rows": (4, 8)})
        assert space.names == ("rows", "vlen")
        assert space.points()[0] == {"rows": 4, "vlen": 2}
        assert space.points()[1] == {"rows": 4, "vlen": 4}

    def test_sizes(self):
        space = ConfigSpace({"rows": (4, 8, 16), "vlen": (2, 4)})
        assert space.raw_size == 6
        assert space.size == 6
        assert len(space) == 6

    def test_points_cached(self):
        space = ConfigSpace({"rows": (4, 8)})
        assert space.points() is space.points()

    def test_constraint_filters(self):
        space = ConfigSpace(
            {"spm_kb": (4, 16), "spm_first_col_kb": (8, 32)},
            constraints=(first_col_double,),
        )
        assert space.points() == [
            {"spm_first_col_kb": 8, "spm_kb": 4},
            {"spm_first_col_kb": 32, "spm_kb": 16},
        ]

    def test_configs_realized_against_base(self):
        base = TensaurusConfig(vlen=8)
        space = ConfigSpace({"rows": (4,)}, base=base)
        params, cfg = space.configs()[0]
        assert cfg.rows == 4
        assert cfg.vlen == 8  # inherited from base

    def test_max_mac_units(self):
        cons = max_mac_units(TensaurusConfig().mac_units)
        assert cons(TensaurusConfig())
        assert not cons(TensaurusConfig().scaled(rows=64))
        assert "max_mac_units" in repr(cons)


class TestHugeSpace:
    def _huge(self):
        return ConfigSpace(
            {
                "rows": tuple(range(1, 102)),
                "cols": tuple(range(1, 101)),
                "vlen": tuple(range(1, 101)),
            }
        )

    def test_enumeration_guarded(self):
        space = self._huge()
        assert space.raw_size > MAX_ENUM
        with pytest.raises(ConfigError, match="too many to enumerate"):
            space.points()


class TestStandardSpaces:
    def test_default_space_shape(self):
        space = default_space()
        assert space.raw_size == 972
        assert len(space) == 324  # first_col_double keeps 1 in 3

    def test_quick_space_shape(self):
        assert len(quick_space()) == 16

    def test_paper_point_reachable(self):
        # The tuner measures the base config separately, but the default
        # space must still contain the paper's knob values.
        base = TensaurusConfig()
        space = default_space()
        assert any(
            space.base.scaled(**p) == base
            for p in space.points()
        )

    def test_repr(self):
        assert "ConfigSpace" in repr(quick_space())
