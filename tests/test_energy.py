"""Tests for the energy/area models (Table 2)."""

import pytest

from repro.energy import (
    AREA_POWER_TABLE,
    CAMBRICON_POWER,
    CPU_POWER,
    GPU_POWER,
    TENSAURUS_TOTAL_AREA_MM2,
    TENSAURUS_TOTAL_POWER_W,
    accelerator_energy,
    scale_power_65_to_28,
)
from repro.sim import Tensaurus
from repro.util.rng import make_rng

from tests.conftest import random_tensor


class TestTable2:
    def test_component_sums_match_totals(self):
        area = sum(a for a, _p in AREA_POWER_TABLE.values())
        power = sum(p for _a, p in AREA_POWER_TABLE.values())
        assert area == pytest.approx(TENSAURUS_TOTAL_AREA_MM2, rel=0.01)
        assert power / 1000.0 == pytest.approx(TENSAURUS_TOTAL_POWER_W, rel=0.01)

    def test_pe_is_biggest_power_consumer(self):
        powers = {k: p for k, (_a, p) in AREA_POWER_TABLE.items()}
        assert max(powers, key=powers.get) == "pe"

    def test_spm_is_biggest_area(self):
        areas = {k: a for k, (a, _p) in AREA_POWER_TABLE.items()}
        assert max(areas, key=areas.get) == "spm"


class TestAcceleratorEnergy:
    def test_bounded_by_full_power_plus_dram(self):
        rng = make_rng(0)
        acc = Tensaurus()
        t = random_tensor(shape=(50, 40, 30), density=0.05, seed=1)
        rep = acc.run_mttkrp(
            t, rng.random((40, 16)), rng.random((30, 16)), compute_output=False
        )
        e = accelerator_energy(rep, acc.config.peak_gops)
        upper = TENSAURUS_TOTAL_POWER_W * rep.time_s + rep.total_bytes * 40e-12
        assert 0 < e <= upper * 1.01

    def test_higher_utilization_more_energy(self):
        rng = make_rng(0)
        acc = Tensaurus()
        t = random_tensor(shape=(50, 40, 30), density=0.05, seed=1)
        rep = acc.run_mttkrp(
            t, rng.random((40, 32)), rng.random((30, 32)), compute_output=False
        )
        full = accelerator_energy(rep, acc.config.peak_gops)
        # Same run charged as if peak were much higher -> lower utilization
        # -> less dynamic energy.
        idle = accelerator_energy(rep, acc.config.peak_gops * 100)
        assert idle < full


class TestScaling:
    def test_65_to_28_reduces_power(self):
        assert scale_power_65_to_28(1.0) < 1.0

    def test_cambricon_scaled_value(self):
        assert CAMBRICON_POWER.compute_w == pytest.approx(
            0.954 * (28 / 65) / 1.44, rel=1e-6
        )


class TestBaselinePowers:
    def test_ordering(self):
        assert GPU_POWER.compute_w > CPU_POWER.compute_w > CAMBRICON_POWER.compute_w

    def test_dram_term(self):
        with_bytes = CPU_POWER.energy(1.0, bytes_moved=10**9)
        assert with_bytes > CPU_POWER.energy(1.0)
