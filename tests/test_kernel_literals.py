"""No ``src/`` module keeps its own list of kernel names.

The kernel table (:mod:`repro.kernels.spec`) declares each family's
names once; every other module looks a name up there. This walks each
module's syntax tree and fails on any tuple, list, set or dict literal
(keys and values alike) holding two or more registered kernel names
outside the table. Exempt: ``__all__`` lists, which name functions, and
the per-platform calibration tables of the baseline models, which hold
one measured constant per kernel.
"""

import ast
from pathlib import Path

from repro.kernels.spec import KERNELS

SRC = Path(__file__).resolve().parents[1] / "src"
TABLE = SRC / "repro" / "kernels" / "spec.py"
NAMES = {name for spec in KERNELS for name in (spec.name, spec.sparse, spec.dense)}
#: (module, assigned name) of each calibration table.
CALIBRATION = {
    ("repro/baselines/cpu.py", "efficiency"),
    ("repro/baselines/gpu.py", "efficiency"),
    ("repro/baselines/t2s.py", "T2S_THROUGHPUT_GOPS"),
}
_LITERALS = (ast.Tuple, ast.List, ast.Set, ast.Dict)


def _targets(node: ast.AST) -> set:
    """The plain names an assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _kernel_names(node: ast.AST) -> list:
    """The registered kernel names among a literal's own elements."""
    parts = (
        node.keys + node.values if isinstance(node, ast.Dict) else node.elts
    )
    return [
        p.value for p in parts
        if isinstance(p, ast.Constant) and p.value in NAMES
    ]


def kernel_name_lists(source: str, module: str) -> list:
    """``(line, names)`` of every literal holding two or more kernel names."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        names = _targets(node)
        if "__all__" in names or any((module, n) in CALIBRATION for n in names):
            exempt.update(id(n) for n in ast.walk(node.value))
    return [
        (node.lineno, names)
        for node in ast.walk(tree)
        if isinstance(node, _LITERALS) and id(node) not in exempt
        and len(names := _kernel_names(node)) >= 2
    ]


def test_no_kernel_name_lists_outside_the_table():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == TABLE:
            continue
        module = path.relative_to(SRC).as_posix()
        lists = kernel_name_lists(path.read_text(), module)
        if lists:
            found[module] = lists
    assert not found, f"kernel-name lists outside the kernel table: {found}"


def test_the_scan_sees_every_literal_kind():
    source = (
        'A = ("spmm", "gemm")\n'
        'B = ["mttkrp", 1, "ttmc"]\n'
        'C = {"spmv", "gemv"}\n'
        'D = {"mttkrp": "dmttkrp"}\n'
        'E = ("spmm", "other")\n'
        '__all__ = ["gemm", "gemv"]\n'
    )
    assert [line for line, _ in kernel_name_lists(source, "m.py")] == [1, 2, 3, 4]
    table = 'efficiency = {"gemm": 0.8, "gemv": 0.6}\n'
    assert kernel_name_lists(table, "repro/baselines/cpu.py") == []
    assert kernel_name_lists(table, "repro/baselines/base.py") == [(1, ["gemm", "gemv"])]
