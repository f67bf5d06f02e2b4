"""The equality contract of the library's records: a record that holds arrays
compares and hashes by identity, so `==` never asks an array for its truth
value and any record can key a dict or sit in a set; `SpaceTag` and
`GenSpec` hold no arrays and compare and hash by value."""
import copy
import dataclasses

import pytest

from traceprod import (
    Basis,
    DecompositionResult,
    Field,
    FORMS,
    GenSpec,
    Generated,
    InfeasibilityCertificate,
    LinMap,
    PowerMap,
    PreservationReport,
    SpaceKind,
    SpaceTag,
    check_preservation,
    decompose,
    generate,
    infeasibility_certificate,
    space_basis,
)
from traceprod.linmaps import _Form

# the tuple length each generated family takes at n = 3, one family per form
_FORM_FAMILIES = {
    "mn_chain": 3, "herm_odd": 3, "herm_even": 4, "pn_pair": 2, "sym_odd": 3, "sym_even": 4,
    "diag_pair": 2, "diag_chain": 3, "hadamard": 2, "rank_one_frame": 2, "nonextendable": 3,
}

IDENTITY_CLASSES = (
    LinMap, _Form, *FORMS, Basis, PreservationReport, InfeasibilityCertificate, DecompositionResult, PowerMap,
    Generated,
)


def _records() -> dict:
    """One record of each identity class but `_Form`, every array n >= 2."""
    gens = {family: generate(GenSpec(family=family, n=3, m=m, seed=1)) for family, m in _FORM_FAMILIES.items()}
    maps = gens["mn_chain"].maps
    records = {type(gen.form): gen.form for gen in gens.values()}
    records.update({
        LinMap: maps[0],
        Basis: space_basis(SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 3)),
        PreservationReport: check_preservation(maps, mode="randomized", trials=8),
        InfeasibilityCertificate: infeasibility_certificate(n=3, k=2),
        DecompositionResult: decompose(maps),
        PowerMap: PowerMap(gens["herm_odd"].maps[0], pre=2.0),
        Generated: gens["mn_chain"],
    })
    return records


RECORDS = _records()


def test_the_identity_classes_are_every_form_and_record_that_holds_arrays():
    assert len(IDENTITY_CLASSES) == len(set(IDENTITY_CLASSES)) == 19
    assert set(RECORDS) == set(IDENTITY_CLASSES) - {_Form}


@pytest.mark.parametrize("cls", IDENTITY_CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_class_keeps_objects_equality_and_hash(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_compares_and_hashes_by_identity(cls):
    x = RECORDS[cls]
    # a deep copy holds equal arrays, on which the generated __eq__ raised
    # ValueError, and a copy the same ones, which it called equal; its
    # __hash__ raised TypeError
    for other in (copy.deepcopy(x), copy.copy(x)):
        assert x == x
        assert (x == other) is False
        assert x != other
    assert hash(x) == hash(x)
    assert x in {x}
    assert copy.deepcopy(x) not in {x}
    assert {x: 1}[x] == 1


def test_a_record_of_a_bare_form_compares_by_identity():
    form = _Form()
    assert form == form and form != _Form()
    assert form in {form}


def test_space_tags_and_gen_specs_compare_and_hash_by_value():
    tag = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3)
    same = SpaceTag("PosDef", "complex", 3)
    assert tag == same and hash(tag) == hash(same)
    assert {tag: 1}[same] == 1
    assert tag != SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 4)
    spec = GenSpec(family="mn_chain", n=3, m=3, seed=2)
    assert spec == copy.deepcopy(spec) and hash(spec) == hash(copy.deepcopy(spec))
    assert spec in {GenSpec(family="mn_chain", n=3, m=3, seed=2)}
    assert spec != dataclasses.replace(spec, seed=3)
