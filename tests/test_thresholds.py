"""The threshold table in `traceprod.spaces`: every verdict threshold is set
there once, each public default reads its entry, and the README's
Thresholds section lists each entry at its value."""
import ast
import inspect
import re
from pathlib import Path

import pytest

import traceprod
from traceprod import spaces
from traceprod.decompose import (
    decompose_diag_chain,
    decompose_diag_pair,
    decompose_hermitian,
    decompose_mn_chain,
    decompose_pn_chain,
    decompose_pn_pair,
    decompose_symmetric,
    herm_power,
    power_map_apply,
    recover_conjugator,
    reshuffled_transfer_rank,
    verify_weighted,
    weighted_reduction,
)
from traceprod.extend import (
    check_preservation,
    dualize,
    embed_extend_pair,
    extend_from_subset,
    infeasibility_certificate,
)
from traceprod.families import GenSpec, random_invertible
from traceprod.linmaps import apply, from_canonical, is_hermitian_preserving, linmap_from_images
from traceprod.spaces import membership

_SRC = Path(spaces.__file__).parent
_README = Path(__file__).resolve().parents[1] / "README.md"

# (function, parameter, table entry, the public default's value)
_DEFAULTS = [
    (check_preservation, "tol", "DEFAULT_TOL", 1e-9),
    (membership, "tol", "DEFAULT_TOL", 1e-9),
    (apply, "tol", "DEFAULT_TOL", 1e-9),
    (dualize, "tol", "DEFAULT_TOL", 1e-9),
    (is_hermitian_preserving, "tol", "DEFAULT_TOL", 1e-9),
    (from_canonical, "tol", "CANONICAL_TOL", 1e-6),
    (recover_conjugator, "tol", "CONJUGATOR_TOL", 1e-6),
    (linmap_from_images, "tol", "IMAGE_SPAN_TOL", 1e-7),
    (extend_from_subset, "tol", "SAMPLE_FIT_TOL", 1e-7),
    (traceprod.decompose, "tol", "REBUILD_TOL", 1e-7),
    (decompose_mn_chain, "tol", "REBUILD_TOL", 1e-7),
    (decompose_hermitian, "tol", "REBUILD_TOL", 1e-7),
    (decompose_symmetric, "tol", "REBUILD_TOL", 1e-7),
    (decompose_pn_pair, "tol", "REBUILD_TOL", 1e-7),
    (decompose_pn_chain, "tol", "REBUILD_TOL", 1e-7),
    (decompose_diag_pair, "tol", "REBUILD_TOL", 1e-7),
    (decompose_diag_chain, "tol", "REBUILD_TOL", 1e-7),
    (herm_power, "tol", "POWER_FLOOR", 1e-12),
    (power_map_apply, "tol", "POWER_FLOOR", 1e-12),
    (verify_weighted, "tol", "WEIGHTED_TOL", 1e-8),
    (weighted_reduction, "tol", "WEIGHTED_TOL", 1e-8),
    (embed_extend_pair, "tol", "EXTEND_TOL", 1e-8),
    (infeasibility_certificate, "cutoff_factor", "RANK_CUTOFF", 1e-9),
    (reshuffled_transfer_rank, "rtol", "RANK_CUTOFF", 1e-9),
    (GenSpec, "condition_bound", "CONDITION_BOUND", 1e3),
    (random_invertible, "cond_bound", "CONDITION_BOUND", 1e3),
]
_IDS = [f"{f.__name__}-{param}" for f, param, _, _ in _DEFAULTS]


def _default(f, param: str):
    return inspect.signature(f).parameters[param].default


@pytest.mark.parametrize("f, param, entry, value", _DEFAULTS, ids=_IDS)
def test_public_default_keeps_its_value(f, param, entry, value):
    default = _default(f, param)
    assert type(default) is float and default == value


@pytest.mark.parametrize("f, param, entry, value", _DEFAULTS, ids=_IDS)
def test_public_default_reads_its_table_entry(f, param, entry, value):
    assert _default(f, param) is getattr(spaces, entry)


def _table() -> tuple[list, range]:
    """The table's names, in order, and its lines in spaces.py: the run of
    module-level assignments that starts at DEFAULT_TOL."""
    body = ast.parse((_SRC / "spaces.py").read_text()).body
    start = next(
        i for i, st in enumerate(body)
        if isinstance(st, ast.Assign) and any(getattr(t, "id", None) == "DEFAULT_TOL" for t in st.targets)
    )
    block = []
    for st in body[start:]:
        if not isinstance(st, ast.Assign):
            break
        block.append(st)
    for st in block:
        assert len(st.targets) == 1 and isinstance(st.targets[0], ast.Name)
        assert isinstance(st.value, ast.Constant) and type(st.value.value) in (int, float)
    return [st.targets[0].id for st in block], range(block[0].lineno, block[-1].end_lineno + 1)


def _stray_literals(tree: ast.AST, allowed: range) -> list:
    """Lines of float literals in (0, 1e-3] outside the `allowed` lines."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-3
        and node.lineno not in allowed
    ]


def _stray_assignments(tree: ast.AST, names, allowed: range) -> list:
    """Lines that bind one of `names`, as a name or an attribute, outside the `allowed` lines."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Store)
        and (getattr(node, "id", None) in names or getattr(node, "attr", None) in names)
        and node.lineno not in allowed
    ]


def test_the_guards_find_a_stray_literal_and_a_stray_assignment():
    tree = ast.parse("x = 1e-9\ny = 2 * 1e-3 + 0.5\nCERTIFY_TOL = 1\nspaces.COND_LIMIT = 2\nz = 0.0\n")
    assert _stray_literals(tree, range(0)) == [1, 2]
    assert _stray_assignments(tree, {"CERTIFY_TOL", "COND_LIMIT"}, range(0)) == [3, 4]
    assert _stray_literals(tree, range(1, 3)) == []


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_threshold_is_set_in_the_table_only(path):
    names, lines = _table()
    allowed = lines if path.name == "spaces.py" else range(0)
    tree = ast.parse(path.read_text())
    assert _stray_literals(tree, allowed) == [], f"threshold literals in {path.name}; name them in the table"
    assert _stray_assignments(tree, set(names), allowed) == [], f"table names assigned in {path.name}"


def test_readme_lists_every_threshold_at_its_value():
    section = _README.read_text().split("\n## Thresholds\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.match(r"\| `(\w+)` \| ([^|]+) \|", line) for line in section.splitlines()]
    rows = [(m[1], float(m[2])) for m in rows if m]
    names, _ = _table()
    assert [name for name, _ in rows] == names
    for name, value in rows:
        assert value == getattr(spaces, name), name
