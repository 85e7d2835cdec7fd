"""Tests for the ASCII charts, the CLI and the PE event trace."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import RooflinePoint, ascii_roofline
from repro.cli import _build_parser, main
from repro.formats import CISSTensor
from repro.sim.config import TensaurusConfig
from repro.sim.costs import kernel_costs
from repro.sim.pe import PELane
from repro.util.errors import ConfigError

from tests.conftest import random_tensor


def make_point(label, oi, gops, peak=512.0, bw=128.0):
    return RooflinePoint(
        label=label,
        op_intensity=oi,
        gops=gops,
        attainable=min(peak, oi * bw),
        bound="memory" if oi < peak / bw else "compute",
    )


class TestAsciiRoofline:
    def test_contains_roof_and_points(self):
        pts = [make_point("a", 1.0, 100.0), make_point("b", 50.0, 500.0)]
        chart = ascii_roofline(pts, 512.0, 128.0)
        assert "/" in chart and "-" in chart
        assert "A = a" in chart and "B = b" in chart

    def test_point_rows_ordered_by_performance(self):
        low = make_point("low", 1.0, 2.0)
        high = make_point("high", 1.0, 900.0)
        chart = ascii_roofline([low, high], 512.0, 128.0).splitlines()
        row_of = {}
        for r, line in enumerate(chart):
            for mark in "AB":
                if f"|{'':0}" in line and mark in line and "=" not in line:
                    row_of.setdefault(mark, r)
        assert row_of["B"] < row_of["A"]  # higher GOP/s drawn higher

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            ascii_roofline([], 512, 128, width=4)

    def test_too_many_points(self):
        pts = [make_point(f"p{i}", 1.0, 10.0) for i in range(99)]
        with pytest.raises(ConfigError):
            ascii_roofline(pts, 512, 128)


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512 GOP/s" in out and "8x8" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "nell-2" in out and "amazon0312" in out and "vgg16-fc6" in out

    def test_run_matrix_kernel(self, capsys):
        assert main(["run", "spmm", "cora", "--rank", "16"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs CPU" in out and "GOP/s" in out

    def test_run_tensor_kernel(self, capsys):
        assert main(["run", "spmttkrp", "poisson3D", "--rank", "8"]) == 0
        out = capsys.readouterr().out
        assert "MSU mode" in out

    def test_kernel_dataset_mismatch(self):
        with pytest.raises(SystemExit):
            main(["run", "spmttkrp", "cora"])

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["run", "spmm", "nonexistent"])

    def test_roofline_command(self, capsys):
        assert main(["roofline", "spmttkrp", "--rank", "8"]) == 0
        out = capsys.readouterr().out
        assert "nell-2" in out and "OI" in out

    def test_every_subcommand_runs_in_ci(self):
        """Each subcommand (and each ``obs``/``chaos`` sub-subcommand) has
        a ``python -m repro`` step in CI, so none can rot unrun."""

        def commands(parser, prefix=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        nested = list(commands(sub, prefix + (name,)))
                        yield from nested or [prefix + (name,)]

        ci = Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml"
        steps = re.findall(r"python -m repro ([\w-]+)(?: ([\w-]+))?", ci.read_text())
        run = {(cmd,) for cmd, _ in steps} | {tuple(step) for step in steps}
        missing = [" ".join(c) for c in commands(_build_parser()) if c not in run]
        assert not missing, f"subcommands with no CI step: {missing}"


class TestPETrace:
    def test_trace_events(self, rng):
        t = random_tensor(shape=(6, 4, 3), density=0.4, seed=60)
        ciss = CISSTensor.from_sparse(t, 1)
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=4)
        pe = PELane(costs, fiber0=rng.random((3, 4)), fiber1=rng.random((4, 4)))
        out = np.zeros((6, 4))
        trace = []
        res = pe.run(ciss.lane_records(0), out, trace=trace)
        kinds = [e for _c, e, _d in trace]
        assert kinds.count("mac") == t.nnz
        assert kinds.count("header") == res.headers
        assert kinds.count("fold") == res.fibers
        assert kinds.count("drain") == res.drains
        # Cycle stamps are non-decreasing and end at the total.
        stamps = [c for c, _e, _d in trace]
        assert stamps == sorted(stamps)
        assert stamps[-1] == res.cycles

    def test_trace_order_per_slice(self, paper_tensor, rng):
        ciss = CISSTensor.from_sparse(paper_tensor, 1)
        costs = kernel_costs("spmttkrp", TensaurusConfig(), fiber_elems=2)
        pe = PELane(costs, fiber0=rng.random((2, 2)), fiber1=rng.random((2, 2)))
        trace = []
        pe.run(ciss.lane_records(0), np.zeros((4, 2)), trace=trace)
        events = [e for _c, e, _d in trace]
        # Stream starts with a header; every drain is preceded by a fold.
        assert events[0] == "header"
        for i, e in enumerate(events):
            if e == "drain":
                assert events[i - 1] == "fold"

