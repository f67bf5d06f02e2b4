"""The paper's length hypotheses are stated once, on the forms (`_Form.lengths`
and `_Form.admits`), and the README's two family tables list each family's
lengths and fields as the package admits them."""
import importlib
import itertools
import re
from pathlib import Path

import pytest

from traceprod import FAMILIES, GenSpec, InvalidParameterError
from traceprod.linmaps import FORMS, _first_admitting
from traceprod.spaces import Field

_README = Path(__file__).resolve().parents[1] / "README.md"
# `traceprod.decompose` is the function; the family table lives in the module
_DECOMPOSERS = importlib.import_module("traceprod.decompose")._DECOMPOSERS
_LENGTHS = range(1, 9)
# one clause of a length cell: an optional parity, the rule, and an optional field
_CLAUSE = re.compile(r"^(?:(odd|even) )?`m (>=|=) (\d+)`(?: (real|complex))?$")


def _table(heading: str) -> dict:
    """The cells of each body row of the first table under `heading`, keyed
    by the family name in its first cell."""
    lines = _README.read_text().split(f"\n{heading}\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]))  # past header and rule
    cells = [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows]
    return {row[0].strip("`"): row for row in cells}


def _fields(text: str) -> set:
    """The fields a field cell names: one when it names it, else both."""
    named = {fd for fd in Field if fd.value in text}
    return named or set(Field)


def _listed(length: str, fields: set) -> set:
    """The (m, field) that a length cell admits, over `fields` where a clause
    names no field of its own."""
    admitted = set()
    for clause in length.split(", or "):
        parity, op, start, field = _CLAUSE.match(clause).groups()
        start = int(start)
        for m in _LENGTHS:
            if (m == start if op == "=" else m >= start) and (parity is None or (m % 2 == 1) == (parity == "odd")):
                admitted |= {(m, fd) for fd in ({Field(field)} if field else fields)}
    return admitted


def _generates(family: str, m: int, fd: Field) -> bool:
    try:
        GenSpec(family=family, n=3, m=m, field=fd)
    except InvalidParameterError:
        return False
    return True


def test_every_form_states_its_lengths():
    for form in FORMS:
        assert isinstance(form.lengths, range) and len(form.lengths) > 0, form.__name__


def test_canonical_families_table_lists_every_generator_family():
    assert sorted(_table("## Canonical families")) == sorted(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_canonical_families_table_gives_the_lengths_and_fields_generate_admits(family):
    _, _, length, field, _ = _table("## Canonical families")[family]
    fields = set(Field) if field == "see length" else _fields(field)
    admitted = {(m, fd) for m in _LENGTHS for fd in Field if _generates(family, m, fd)}
    assert _listed(length, fields) == admitted


def test_decomposition_families_table_lists_every_decompose_family():
    assert sorted(_table("### Decomposition families")) == sorted(_DECOMPOSERS)


@pytest.mark.parametrize("family", sorted(_DECOMPOSERS))
def test_decomposition_families_table_gives_the_lengths_and_fields_decompose_admits(family):
    _, span, length, _ = _table("### Decomposition families")[family]
    admitted = {(m, fd) for m in _LENGTHS for fd in Field if _first_admitting(_DECOMPOSERS[family].forms, m, fd)}
    assert _listed(length, _fields(span)) == admitted
