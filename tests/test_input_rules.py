"""The three argument rules of the package, each a table over every public
function that takes such an argument: the matrix rule (`spaces._numeric`),
the space rule (`spaces._check_space`) and the map rule
(`linmaps._require_map`). Each refusal is an InvalidParameterError that
names the argument."""
import re

import numpy as np
import pytest

from traceprod import (
    DimensionMismatchError,
    Field,
    HermOdd,
    InvalidParameterError,
    LinMap,
    SpaceKind,
    SpaceTag,
    apply,
    apply_batch,
    base_field,
    complexify,
    compose,
    coords,
    dualize,
    embed_extend_pair,
    extend_from_subset,
    from_canonical,
    gen_space_sample,
    generate,
    gram_matrix,
    herm_power,
    identity_map,
    image_stack,
    is_hermitian_preserving,
    linmap_from_images,
    membership,
    power_map_apply,
    random_batch,
    random_element,
    reassemble,
    recover_conjugator,
    reshuffled_transfer_rank,
    space_basis,
    span_dim,
    span_of,
    trace_pair,
    transpose_map,
    weighted_canonical_maps,
)
from traceprod.jsonio import encode_linmap, encode_maps, encode_matrix, encode_space
from traceprod.spaces import coords_batch, reassemble_batch

C2 = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
D2 = SpaceTag(SpaceKind.DIAGONAL, Field.COMPLEX, 2)  # two coordinates, so a 2 x 2 nesting is a transfer
H2 = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
_UNITS = [np.eye(4)[k].reshape(2, 2) for k in range(4)]

# a 2 x 2 argument that is no matrix of numbers, by the name of its kind
_NOT_NUMBERS = {
    "string": "abc",
    "numeric-strings": [["1", "0"], ["0", "1"]],
    "bool": np.eye(2, dtype=bool),
    "ragged": [[1, 2], [3]],
    "nones": [[None, None], [None, None]],
    "dict": {"a": 1},
}
_ALL = tuple(_NOT_NUMBERS)

# (function, call on the bad argument, the name the refusal gives it, the kinds
# it is tested on). Each row escaped the rule: as a bare ValueError or
# TypeError, as NaN entries or a False, or as a result read off strings or
# bools. A kind left out of a row was refused already, as a shape or span
# error, where the rule now refuses it first.
_MATRIX_ARGUMENTS = [
    ("coords", lambda M: coords(C2, M), "A", ("numeric-strings", "bool", "ragged", "nones")),
    ("coords_batch", lambda M: coords_batch(C2, [M]), "batch", ("numeric-strings", "bool", "ragged", "nones")),
    ("reassemble", lambda M: reassemble(C2, M), "x", ("ragged",)),
    ("reassemble_batch", lambda M: reassemble_batch(D2, M), "x", ("numeric-strings", "bool", "ragged", "nones")),
    ("membership", lambda M: membership(C2, M), "A", _ALL),
    ("trace_pair", lambda M: trace_pair(M, np.eye(2)), "A", ("numeric-strings", "bool", "ragged", "nones")),
    ("gram_matrix", lambda M: gram_matrix([M]), "left[0]", ("numeric-strings", "bool", "nones", "dict")),
    ("LinMap", lambda M: LinMap(D2, D2, M), "transfer", ("numeric-strings", "bool", "ragged")),
    ("apply", lambda M: apply(identity_map(C2), M), "A", ("string", "numeric-strings", "bool", "ragged", "dict")),
    ("apply_batch", lambda M: apply_batch(identity_map(C2), [M]), "batch",
     ("numeric-strings", "bool", "ragged", "nones")),
    ("linmap_from_images", lambda M: linmap_from_images(C2, C2, [M] * 4), "images",
     ("string", "numeric-strings", "bool", "ragged", "dict")),
    ("recover_conjugator", lambda M: recover_conjugator([M] * 4), "images", ("string", "ragged", "dict")),
    ("extend_from_subset", lambda M: extend_from_subset(C2, C2, [(U, U) for U in _UNITS[:3]] + [(M, M)]),
     "inputs[3]", ("numeric-strings", "bool")),
    ("encode_matrix", encode_matrix, "M", ("numeric-strings", "bool", "ragged", "nones")),
    ("herm_power", lambda M: herm_power(M, 2.0), "A", ("string", "numeric-strings", "bool", "ragged", "dict")),
    ("power_map_apply", lambda M: power_map_apply(identity_map(H2), M), "A",
     ("string", "numeric-strings", "bool", "ragged", "dict")),
]


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, _NOT_NUMBERS[kind], id=f"{function}-{kind}")
        for function, call, name, kinds in _MATRIX_ARGUMENTS
        for kind in kinds
    ],
)
def test_matrix_arguments_that_are_not_numbers_are_invalid_parameters(call, name, value):
    # the match is on the prefix, since numpy's own text in the parentheses differs between versions
    with pytest.raises(InvalidParameterError, match="^" + re.escape(f"{name} must be an array of numbers")):
        call(value)


def test_the_matrix_rule_leaves_shapes_to_each_caller():
    # a numeric matrix of the wrong shape is no member, and matrices of two
    # shapes are a shape error that names them
    assert membership(C2, np.eye(3)) is False
    with pytest.raises(InvalidParameterError, match="left"):
        gram_matrix([np.eye(2), np.eye(2, dtype=bool)])
    for call in (lambda: gram_matrix([np.eye(2), np.eye(3)]),
                 lambda: extend_from_subset(C2, C2, [(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))])):
        with pytest.raises(DimensionMismatchError, match=re.escape("of shapes [(2, 2), (3, 3)]")):
            call()


_FORM = HermOdd(np.eye(2), (1.0, 1.0, 1.0))

# (call on the bad space, the name the refusal gives it); each raised AttributeError on a str or None
_SPACE_ARGUMENTS = {
    "span_of": (span_of, "space"),
    "base_field": (base_field, "space"),
    "span_dim": (span_dim, "space"),
    "space_basis": (space_basis, "space"),
    "coords": (lambda s: coords(s, np.eye(2)), "space"),
    "coords_batch": (lambda s: coords_batch(s, np.eye(2)[None]), "space"),
    "reassemble": (lambda s: reassemble(s, np.zeros(4)), "space"),
    "reassemble_batch": (lambda s: reassemble_batch(s, np.zeros((1, 4))), "space"),
    "membership": (lambda s: membership(s, np.eye(2)), "space"),
    "random_batch": (lambda s: random_batch(s, 2), "space"),
    "random_element": (random_element, "space"),
    "gen_space_sample": (lambda s: gen_space_sample(s, 2), "space"),
    "identity_map": (identity_map, "space"),
    "transpose_map": (transpose_map, "space"),
    "LinMap-domain": (lambda s: LinMap(s, C2, np.eye(4)), "domain"),
    "LinMap-codomain": (lambda s: LinMap(C2, s, np.eye(4)), "codomain"),
    "linmap_from_images-domain": (lambda s: linmap_from_images(s, C2, np.zeros((4, 2, 2))), "domain"),
    "linmap_from_images-codomain": (lambda s: linmap_from_images(C2, s, np.zeros((4, 2, 2))), "codomain"),
    "extend_from_subset-domain": (lambda s: extend_from_subset(s, C2, [(np.eye(2), np.eye(2))]), "domain"),
    "extend_from_subset-codomain": (lambda s: extend_from_subset(C2, s, [(np.eye(2), np.eye(2))]), "codomain"),
    "from_canonical": (lambda s: from_canonical(_FORM, s), "space"),
    "weighted_canonical_maps": (lambda s: weighted_canonical_maps(_FORM, [1] * 3, [1] * 3, s), "space"),
    "encode_space": (encode_space, "space"),
    "encode_maps": (lambda s: encode_maps(s, [identity_map(C2)]), "space"),
}


@pytest.mark.parametrize("value", ["x", None], ids=["str", "None"])
@pytest.mark.parametrize("call, name", list(_SPACE_ARGUMENTS.values()), ids=list(_SPACE_ARGUMENTS))
def test_space_arguments_that_are_no_tags_are_invalid_parameters(call, name, value):
    with pytest.raises(InvalidParameterError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be a SpaceTag, got {type(value).__name__}"


_I2 = identity_map(C2)

# (call on the bad map, the name the refusal gives it, what it must be); each raised AttributeError
_MAP_ARGUMENTS = {
    "compose-f": (lambda f: compose(f, _I2), "f", "LinMap"),
    "compose-g": (lambda g: compose(_I2, g), "g", "LinMap"),
    "apply": (lambda f: apply(f, np.eye(2)), "map_", "LinMap"),
    "apply_batch": (lambda f: apply_batch(f, np.eye(2)[None]), "map_", "LinMap"),
    "image_stack": (image_stack, "map_", "LinMap"),
    "is_hermitian_preserving": (is_hermitian_preserving, "map_", "LinMap"),
    "complexify": (complexify, "map_", "LinMap"),
    "dualize": (dualize, "map_", "LinMap"),
    "embed_extend_pair-phi1": (lambda f: embed_extend_pair(f, _I2), "phi1", "LinMap"),
    "embed_extend_pair-phi2": (lambda f: embed_extend_pair(_I2, f), "phi2", "LinMap"),
    "reshuffled_transfer_rank": (reshuffled_transfer_rank, "map_", "LinMap"),
    "power_map_apply": (lambda f: power_map_apply(f, np.eye(2)), "map_", "LinMap or PowerMap"),
    "encode_linmap": (encode_linmap, "map_", "LinMap"),
    "generate": (generate, "spec", "GenSpec"),
}


@pytest.mark.parametrize("value", ["x", None], ids=["str", "None"])
@pytest.mark.parametrize("call, name, kinds", list(_MAP_ARGUMENTS.values()), ids=list(_MAP_ARGUMENTS))
def test_map_arguments_that_are_no_maps_are_invalid_parameters(call, name, kinds, value):
    with pytest.raises(InvalidParameterError) as exc:
        call(value)
    assert str(exc.value) == f"{name} is not a {kinds}"
