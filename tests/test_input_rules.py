"""The argument rules of the package, each a table over every public
function that takes such an argument: the matrix rule (`spaces._numeric`),
the stack rule (`spaces._stack`), the space rule (`spaces._check_space`) and
the map rule (`linmaps._require_map`), which also reads the records that the
JSON encoders take. Each refusal is an InvalidParameterError that names the
argument, or a DimensionMismatchError for a stack of two shapes."""
import re
import reprlib

import numpy as np
import pytest

from traceprod import (
    CheckMode,
    DimensionMismatchError,
    Field,
    GenSpec,
    HermOdd,
    InvalidParameterError,
    LinMap,
    PowerMap,
    SpaceKind,
    SpaceTag,
    apply,
    apply_batch,
    base_field,
    check_preservation,
    complexify,
    compose,
    coords,
    decompose,
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
    infeasibility_certificate,
    is_hermitian_preserving,
    linmap_from_images,
    membership,
    nonextendable_best_fit_residual,
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
    verify_weighted,
    weighted_canonical_maps,
    weighted_reduction,
)
from traceprod.jsonio import (
    encode_certificate,
    encode_decomposition,
    encode_generated,
    encode_linmap,
    encode_maps,
    encode_matrix,
    encode_report,
    encode_space,
)
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
    ("coords_batch", lambda M: coords_batch(C2, [M]), "batch[0]", ("numeric-strings", "bool", "ragged", "nones")),
    ("reassemble", lambda M: reassemble(C2, M), "x", ("ragged",)),
    ("reassemble_batch", lambda M: reassemble_batch(D2, M), "x", ("numeric-strings", "bool", "ragged", "nones")),
    ("membership", lambda M: membership(C2, M), "A", _ALL),
    ("trace_pair", lambda M: trace_pair(M, np.eye(2)), "A", ("numeric-strings", "bool", "ragged", "nones")),
    ("gram_matrix", lambda M: gram_matrix([M]), "left[0]", ("numeric-strings", "bool", "nones", "dict")),
    ("LinMap", lambda M: LinMap(D2, D2, M), "transfer", ("numeric-strings", "bool", "ragged")),
    ("apply", lambda M: apply(identity_map(C2), M), "A", ("string", "numeric-strings", "bool", "ragged", "dict")),
    ("apply_batch", lambda M: apply_batch(identity_map(C2), [M]), "batch[0]",
     ("numeric-strings", "bool", "ragged", "nones")),
    ("linmap_from_images", lambda M: linmap_from_images(C2, C2, [M] * 4), "images[0]",
     ("string", "numeric-strings", "bool", "ragged", "dict")),
    ("recover_conjugator", lambda M: recover_conjugator([M] * 4), "images[0]", ("string", "ragged", "dict")),
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
    # a list stack that numpy read whole quoted its ragged-array text; each
    # function names the shapes after its own shape message
    for call, prefix in (
        (lambda: coords_batch(C2, [np.eye(2), np.eye(3)]), "expected a (count, 2, 2) stack: batch"),
        (lambda: apply_batch(identity_map(C2), [np.eye(2), np.eye(3)]), "expected a (count, 2, 2) stack: batch"),
        (lambda: linmap_from_images(C2, C2, _UNITS[:3] + [np.eye(3)]), "images must be 2 x 2: images"),
        (lambda: recover_conjugator(_UNITS[:3] + [np.eye(3)]), "need n^2 or n(n+1)/2 images of shape (n, n): images"),
    ):
        with pytest.raises(DimensionMismatchError) as exc:
            call()
        assert str(exc.value) == f"{prefix} of shapes [(2, 2), (3, 3)]"


# (call on a list stack whose last matrix is the bad one, the name the refusal
# gives that entry); numpy promoted a bool matrix beside a numeric one to 0/1,
# so each call returned a result read off it
_LIST_STACKS = {
    "coords_batch": (lambda M: coords_batch(C2, [np.eye(2), M]), "batch[1]"),
    "apply_batch": (lambda M: apply_batch(identity_map(C2), [np.eye(2), M]), "batch[1]"),
    "linmap_from_images": (lambda M: linmap_from_images(C2, C2, _UNITS[:3] + [M]), "images[3]"),
    "recover_conjugator": (lambda M: recover_conjugator(_UNITS[:3] + [M]), "images[3]"),
}


@pytest.mark.parametrize("call, name", list(_LIST_STACKS.values()), ids=list(_LIST_STACKS))
def test_a_list_stack_is_read_matrix_by_matrix(call, name):
    with pytest.raises(InvalidParameterError) as exc:
        call(np.eye(2, dtype=bool))
    assert str(exc.value) == f"{name} must be an array of numbers, got dtype bool"


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
    "encode_maps": (lambda f: encode_maps(C2, [f]), "maps[0]", "LinMap"),
    "encode_generated": (lambda g: encode_generated(g, "mn_chain"), "gen", "Generated"),
    "encode_report": (encode_report, "report", "PreservationReport"),
    "encode_certificate": (encode_certificate, "cert", "InfeasibilityCertificate"),
    "encode_decomposition": (lambda r: encode_decomposition(r, C2), "result", "DecompositionResult"),
}


@pytest.mark.parametrize("value", ["x", None], ids=["str", "None"])
@pytest.mark.parametrize("call, name, kinds", list(_MAP_ARGUMENTS.values()), ids=list(_MAP_ARGUMENTS))
def test_map_arguments_that_are_no_maps_are_invalid_parameters(call, name, kinds, value):
    with pytest.raises(InvalidParameterError) as exc:
        call(value)
    assert str(exc.value) == f"{name} is not a {kinds}"


def test_encode_maps_reads_its_maps_by_the_sequence_rule():
    # a maps document may hold no map; an iterator has no len(), and a number is no iterable
    assert encode_maps(C2, ()) == {"space": encode_space(C2), "m": 0, "maps": []}
    assert encode_maps(C2, iter([_I2])) == encode_maps(C2, [_I2])
    with pytest.raises(InvalidParameterError, match="^maps must be an iterable of maps, got int$"):
        encode_maps(C2, 5)


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


# a list nested far past the recursion limit, and how each refusal quotes it:
# `reprlib.repr` shows six levels, where repr recursed once per level
_DEEP = _nested(20_000)
_DEEP_TEXT = "[[[[[[[...]]]]]]]"
_H2_MAPS = [identity_map(H2)] * 2

# each entry point, by the argument it is called on; each raised RecursionError
_DEEP_ARGUMENTS = {
    "check_preservation-tol": lambda v: check_preservation([_I2, _I2], tol=v),
    "check_preservation-trials": lambda v: check_preservation([_I2, _I2], trials=v),
    "check_preservation-mode": lambda v: check_preservation([_I2, _I2], mode=v),
    "GenSpec-family": lambda v: GenSpec(v, 2, 3),
    "GenSpec-n": lambda v: GenSpec("mn_chain", v, 3),
    "GenSpec-field": lambda v: GenSpec("mn_chain", 2, 3, field=v),
    "SpaceTag": lambda v: SpaceTag(v, Field.REAL, 2),
    "decompose-family": lambda v: decompose([_I2, _I2], family=v),
    "verify_weighted": lambda v: verify_weighted(_H2_MAPS, v, [1, 1]),
    "PowerMap": lambda v: PowerMap(identity_map(H2), v),
    "infeasibility_certificate-field": lambda v: infeasibility_certificate(3, 2, field=v),
    "infeasibility_certificate-cutoff_factor": lambda v: infeasibility_certificate(3, 2, cutoff_factor=v),
    "HermOdd": lambda v: HermOdd(np.eye(2), (v, 1.0, 1.0)),
    "herm_power": lambda v: herm_power(np.eye(2), v),
    "reshuffled_transfer_rank": lambda v: reshuffled_transfer_rank(_I2, v),
    "membership": lambda v: membership(C2, np.eye(2), tol=v),
    "random_batch": lambda v: random_batch(C2, v),
    "dualize": lambda v: dualize(_I2, tol=v),
}


@pytest.mark.parametrize("call", list(_DEEP_ARGUMENTS.values()), ids=list(_DEEP_ARGUMENTS))
def test_a_refusal_quotes_a_deeply_nested_value_to_six_levels(call):
    with pytest.raises(InvalidParameterError) as exc:
        call(_DEEP)
    assert _DEEP_TEXT in str(exc.value)


def test_a_refusal_quotes_a_value_within_the_bounds_as_repr_does():
    for call, value, text in (
        (lambda v: check_preservation([_I2, _I2], tol=v), "1e-9", "tol must be finite and nonnegative, got '1e-9'"),
        (lambda v: GenSpec("mn_chain", v, 3), 3.0, "n must be a positive integer, got 3.0"),
        (lambda v: check_preservation([_I2, _I2], mode=v), "fast",
         "mode must be auto, exhaustive or randomized, got 'fast'"),
        (lambda v: SpaceTag(SpaceKind.FULL, v, 2), "quaternion", "'quaternion' is not a valid Field"),
        (lambda v: decompose([_I2, _I2], family=v), None, "unknown family None; expected one of"),
    ):
        with pytest.raises(InvalidParameterError) as exc:
            call(value)
        assert str(exc.value).startswith(text)


@pytest.mark.parametrize("value", [1, SpaceKind.FULL, Field.REAL.value.encode(), ["real"], None],
                         ids=["int", "other-enum", "bytes", "list", "None"])
def test_an_enum_name_is_a_string_that_is_one_of_its_values(value):
    # a member of another str enum names no field by its value "FullMatrix"
    with pytest.raises(InvalidParameterError) as exc:
        SpaceTag(SpaceKind.FULL, value, 2)
    assert str(exc.value).endswith("is not a valid Field")


@pytest.mark.parametrize("call, text", [
    (lambda v: check_preservation([_I2, _I2], mode=v), "mode must be auto, exhaustive or randomized, got array("),
    (lambda v: GenSpec(v, 2, 3), "unknown family array("),
], ids=["check_preservation-mode", "GenSpec-family"])
def test_a_name_given_as_an_array_is_refused_by_its_rule(call, text):
    # `==` and `in` compared the array entrywise, and its truth value was a bare ValueError
    with pytest.raises(InvalidParameterError, match="^" + re.escape(text)):
        call(np.array(["auto", "mn_chain"]))


def test_an_enum_name_reads_as_its_member():
    assert SpaceTag("FullMatrix", "real", 2) == SpaceTag(SpaceKind.FULL, Field.REAL, 2)
    assert check_preservation([_I2, _I2], mode="exhaustive").mode is CheckMode.EXHAUSTIVE


_X2 = np.diag([1.0, 2.0])

# each seeded public function, called on the seed
_SEED_ARGUMENTS = {
    "GenSpec": lambda s: GenSpec("mn_chain", 2, 3, seed=s),
    "check_preservation": lambda s: check_preservation([_I2, _I2], mode="randomized", trials=4, seed=s),
    "verify_weighted": lambda s: verify_weighted(_H2_MAPS, [1, 1], [1, 1], trials=4, seed=s),
    "infeasibility_certificate": lambda s: infeasibility_certificate(2, 1, trials=2, seed=s),
    "random_batch": lambda s: random_batch(C2, 2, s),
    "weighted_reduction": lambda s: weighted_reduction(_H2_MAPS, [1, 1], [1, 1], seed=s),
    "nonextendable_best_fit_residual": lambda s: nonextendable_best_fit_residual(_X2, trials=2, seed=s),
}

# numpy took the first three: None drew from OS entropy, True read as 1 and
# a list as entropy words; the deep list raised RecursionError, and the rest
# were refused already
_BAD_SEEDS = {"None": None, "bool": True, "list": [1, 2], "deep": _DEEP, "negative": -1, "float": 1.0, "str": "0"}


@pytest.mark.parametrize("seed", list(_BAD_SEEDS.values()), ids=list(_BAD_SEEDS))
@pytest.mark.parametrize("call", list(_SEED_ARGUMENTS.values()), ids=list(_SEED_ARGUMENTS))
def test_a_seed_is_a_nonnegative_integer_or_a_generator(call, seed):
    with pytest.raises(InvalidParameterError) as exc:
        call(seed)
    assert str(exc.value) == f"seed must be a nonnegative integer, got {reprlib.repr(seed)}"


@pytest.mark.parametrize("call", list(_SEED_ARGUMENTS.values()), ids=list(_SEED_ARGUMENTS))
def test_a_numpy_integer_or_a_generator_is_a_seed(call):
    call(np.int64(3))
    call(np.random.default_rng(3))
    # a numpy integer draws as the int of its value does
    assert np.array_equal(random_batch(C2, 2, np.uint8(7)), random_batch(C2, 2, 7))
