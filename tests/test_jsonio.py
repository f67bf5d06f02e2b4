import io
import json

import numpy as np
import pytest

from traceprod import Field, GenSpec, InvalidParameterError, LinMap, SpaceKind, SpaceTag, from_canonical, generate
from traceprod import jsonio
from traceprod.jsonio import (
    decode_document,
    decode_form,
    decode_linmap,
    decode_maps_document,
    decode_matrix,
    decode_space,
    encode_document,
    encode_form,
    encode_generated,
    encode_linmap,
    encode_maps,
    encode_matrix,
    encode_space,
)

ROUND_TRIP_CASES = [
    ("mn_chain", 3, 3, Field.COMPLEX),
    ("herm_odd", 3, 3, Field.COMPLEX),
    ("herm_even", 3, 4, Field.COMPLEX),
    ("pn_pair", 3, 2, Field.COMPLEX),
    ("sym_odd", 3, 3, Field.REAL),
    ("sym_even", 3, 4, Field.COMPLEX),
    ("sym_even", 3, 2, Field.REAL),
    ("pn_chain", 3, 3, Field.REAL),
    ("diag_pair", 3, 2, Field.COMPLEX),
    ("diag_chain", 3, 3, Field.REAL),
    ("hadamard", 3, 2, Field.REAL),
    ("rank_one_frame", 3, 2, Field.COMPLEX),
    ("nonextendable", 2, 3, Field.COMPLEX),
]


def test_matrix_round_trip_complex():
    A = np.array([[1.0 + 2j, -0.5], [0.0, 3j]])
    doc = json.loads(json.dumps(encode_matrix(A)))
    assert doc["field"] == "complex"
    assert np.array_equal(decode_matrix(doc), A)


def test_matrix_round_trip_real():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    doc = encode_matrix(A)
    assert doc["field"] == "real"
    back = decode_matrix(doc)
    assert back.dtype == np.float64
    assert np.array_equal(back, A)


def test_matrix_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        decode_matrix({"rows": 2, "cols": 2, "field": "real", "data": [[1, 0]]})


@pytest.mark.parametrize("entry", [[1.0, 0.0, 2.0], "one", True, "1.5", [True, 0.0], pytest.param(10**400, id="huge-int")])
def test_matrix_rejects_malformed_entry(entry):
    # first and last, so that a check reading only some entries fails
    for position in (0, 8):
        data = [[0.0, 0.0]] * 9
        data[position] = entry
        with pytest.raises(InvalidParameterError):
            decode_matrix({"rows": 3, "cols": 3, "field": "complex", "data": data})


def test_matrix_mixes_bare_numbers_and_pairs():
    pairs = [[1, 0], [2.5, -0.5], [-0.0, 0], [3, 1e-300]]
    mixed = [1, [2.5, -0.5], -0.0, [3, 1e-300]]
    want = decode_matrix({"rows": 2, "cols": 2, "field": "complex", "data": pairs})
    got = decode_matrix({"rows": 2, "cols": 2, "field": "complex", "data": mixed})
    assert np.array_equal(got, want)
    assert np.array_equal(want, [[1, 2.5 - 0.5j], [0, 3 + 1e-300j]])


@pytest.mark.parametrize(
    "field,entry",
    [("banana", [1.0, 0.0]), (None, [1.0, 0.0]), ("real", [1.0, 2.0])],
    ids=["unknown-field", "null-field", "real-with-imaginary-part"],
)
def test_matrix_rejects_bad_field(field, entry):
    with pytest.raises(InvalidParameterError):
        decode_matrix({"rows": 1, "cols": 1, "field": field, "data": [entry]})


@pytest.mark.parametrize("size", [1.5, "2", True])
def test_matrix_rejects_non_integer_sizes(size):
    for key in ("rows", "cols"):
        obj = {"rows": 1, "cols": 1, "field": "real", "data": [[1.0, 0.0]], key: size}
        with pytest.raises(InvalidParameterError, match=f"{key} must be an integer"):
            decode_matrix(obj)


@pytest.mark.parametrize("size", [1.5, "2", True])
def test_space_rejects_non_integer_sizes(size):
    with pytest.raises(InvalidParameterError, match="n must be an integer"):
        decode_space({"kind": "FullMatrix", "field": "complex", "n": size})


def test_space_round_trip():
    tag = SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 4)
    assert decode_space(json.loads(json.dumps(encode_space(tag)))) == tag


def test_linmap_round_trip():
    gen = generate(GenSpec(family="pn_pair", n=3, m=2, seed=1))
    for f in gen.maps:
        back = decode_linmap(json.loads(json.dumps(encode_linmap(f))))
        assert back.domain == f.domain
        assert back.codomain == f.codomain
        assert np.array_equal(back.transfer, f.transfer)


@pytest.mark.parametrize("family,n,m,field", ROUND_TRIP_CASES)
def test_form_round_trip_rebuilds_same_maps(family, n, m, field):
    gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=3))
    back = decode_form(json.loads(json.dumps(encode_form(gen.form))))
    assert type(back) is type(gen.form)
    for f, g in zip(gen.maps, from_canonical(back, gen.space)):
        assert np.max(np.abs(f.transfer - g.transfer)) < 1e-12


# the "params" of each form tag as written on the wire: key -> value shape
WIRE_FORMAT = {
    "MnChain": {"N": "matrices"},
    "HermOdd": {"U": "matrix", "c": "pairs"},
    "HermEven": {"M": "matrix", "c": "pairs"},
    "PnPair": {"M": "matrix", "transpose": "bool"},
    "SymOdd": {"O": "matrix", "c": "pairs"},
    "SymEven": {"M": "matrix", "c": "pairs"},
    "DiagPair": {"N": "matrix"},
    "DiagChain": {"P": "matrix", "C": "matrices"},
    "Hadamard": {"C": "matrix"},
    "RankOneFrame": {"A": "matrices"},
    "NonextendableTriple": {"X": "matrix"},
}


def _wire_shape(value, n):
    def is_matrix(obj):
        return (
            set(obj) == {"rows", "cols", "field", "data"}
            and obj["rows"] == obj["cols"] == n
            and obj["field"] in ("real", "complex")
            and len(obj["data"]) == n * n
            and all(len(z) == 2 for z in obj["data"])
        )

    if isinstance(value, bool):
        return "bool"
    if isinstance(value, dict) and is_matrix(value):
        return "matrix"
    if value and all(isinstance(v, dict) and is_matrix(v) for v in value):
        return "matrices"
    if value and all(isinstance(v, list) and len(v) == 2 and all(isinstance(x, float) for x in v) for v in value):
        return "pairs"
    return "unknown"


def test_form_wire_format_is_pinned():
    seen = set()
    for family, n, m, field in ROUND_TRIP_CASES:
        gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=3))
        doc = json.loads(json.dumps(encode_form(gen.form)))
        assert set(doc) == {"form", "params"}
        want = WIRE_FORMAT[doc["form"]]
        assert {k: _wire_shape(v, n) for k, v in doc["params"].items()} == want
        seen.add(doc["form"])
    assert seen == set(WIRE_FORMAT)


def test_form_decoder_rejects_complex_hermitian_scalars():
    gen = generate(GenSpec(family="herm_odd", n=2, m=3, seed=1))
    doc = json.loads(json.dumps(encode_form(gen.form)))
    doc["params"]["c"][0][1] = 0.5
    with pytest.raises(InvalidParameterError):
        decode_form(doc)


@pytest.mark.parametrize("family,field", [("herm_odd", Field.COMPLEX), ("sym_even", Field.COMPLEX)])
@pytest.mark.parametrize("entry", [[1.0, 0.0, 2.0], "one", True, "1.5", [True, 0.0], pytest.param(10**400, id="huge-int")])
def test_form_decoder_rejects_malformed_scalar(family, field, entry):
    # herm_odd's scalars are real, sym_even's complex; both go through the matrix entry decoder
    gen = generate(GenSpec(family=family, n=2, m=4 if family == "sym_even" else 3, field=field, seed=1))
    doc = json.loads(json.dumps(encode_form(gen.form)))
    for position in (0, -1):
        bad = json.loads(json.dumps(doc))
        bad["params"]["c"][position] = entry
        with pytest.raises(InvalidParameterError):
            decode_form(bad)


def test_form_decoder_reads_bare_scalars():
    gen = generate(GenSpec(family="herm_odd", n=2, m=3, seed=1))
    doc = json.loads(json.dumps(encode_form(gen.form)))
    doc["params"]["c"] = [re for re, _ in doc["params"]["c"]]
    back = decode_form(doc)
    assert back.c == gen.form.c
    assert all(type(c) is float for c in back.c)


@pytest.mark.parametrize("value", [True, False])
def test_form_decoder_keeps_json_booleans(value):
    gen = generate(GenSpec(family="pn_pair", n=2, m=2, seed=1))
    doc = json.loads(json.dumps(encode_form(gen.form)))
    doc["params"]["transpose"] = value
    assert decode_form(doc).transpose is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
def test_form_decoder_rejects_non_boolean_flags(value):
    gen = generate(GenSpec(family="pn_pair", n=2, m=2, seed=1))
    doc = json.loads(json.dumps(encode_form(gen.form)))
    doc["params"]["transpose"] = value
    with pytest.raises(InvalidParameterError):
        decode_form(doc)
    with pytest.raises(InvalidParameterError):
        decode_maps_document(json.loads(json.dumps({**encode_generated(gen, "pn_pair"), "form": doc})))


def test_generated_document_decodes_to_maps(tmp_path):
    gen = generate(GenSpec(family="herm_odd", n=3, m=3, seed=5))
    doc = json.loads(json.dumps(encode_generated(gen, "herm_odd")))
    maps, space = decode_maps_document(doc)
    assert space == gen.space
    for f, g in zip(maps, gen.maps):
        assert np.array_equal(f.transfer, g.transfer)


@pytest.mark.parametrize("family,n,m,field", ROUND_TRIP_CASES)
def test_encoded_document_decodes_to_generated_maps(family, n, m, field):
    gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=3))
    doc = encode_generated(gen, family)
    fh = io.StringIO()
    encode_document(doc, fh)
    text = fh.getvalue()
    assert text == json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    maps, space = decode_maps_document(json.loads(text))
    assert space == gen.space
    for f, g in zip(maps, gen.maps, strict=True):
        assert f.transfer.dtype == g.transfer.dtype
        assert np.array_equal(f.transfer, g.transfer)


def test_maps_document_space_must_span_every_maps_domain():
    gen = generate(GenSpec(family="herm_odd", n=3, m=3, seed=5))
    doc = json.loads(json.dumps(encode_generated(gen, "herm_odd")))
    # a cone spans the Hermitian matrices its maps act on
    doc["space"] = {"kind": "PosDef", "field": "complex", "n": 3}
    maps, space = decode_maps_document(doc)
    assert space == SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3) and len(maps) == 3
    for other in ({"kind": "Hermitian", "field": "real", "n": 3}, {"kind": "Hermitian", "field": "complex", "n": 4}):
        doc["space"] = other
        with pytest.raises(InvalidParameterError, match='"space" spans .* but map 0 acts on Hermitian complex'):
            decode_maps_document(doc)
    # every map is held to it, not only the first
    doc["space"] = {"kind": "Hermitian", "field": "complex", "n": 3}
    doc["maps"][2] = encode_linmap(generate(GenSpec(family="herm_odd", n=4, m=3, seed=5)).maps[2])
    with pytest.raises(InvalidParameterError, match="but map 2 acts on Hermitian complex matrices of size 4"):
        decode_maps_document(doc)


def test_bare_list_document():
    gen = generate(GenSpec(family="diag_pair", n=2, m=2, seed=6))
    doc = [encode_linmap(f) for f in gen.maps]
    maps, space = decode_maps_document(json.loads(json.dumps(doc)))
    assert space is None
    assert len(maps) == 2


def test_maps_document_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        decode_maps_document({"nothing": "here"})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: encode_matrix(np.zeros((2, 2, 2))), "can only encode 2-d matrices, got ndim=3", id="3-d"),
        # a vector was encoded as the diagonal matrix it holds, which nothing decoded back to it
        pytest.param(lambda: encode_matrix(np.ones(3)), "can only encode 2-d matrices, got ndim=1", id="1-d"),
        pytest.param(lambda: encode_form(object()), "cannot encode form of type object", id="not-a-form"),
    ],
)
def test_encoders_refuse_what_has_no_document(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("row_entries", [1, 7, 2**12], ids=["one-row-blocks", "odd-blocks", "default-blocks"])
def test_streamed_documents_write_the_public_encoders_text(monkeypatch, row_entries):
    monkeypatch.setattr(jsonio, "_ROW_ENTRIES", row_entries)
    for family, n, m, field in ROUND_TRIP_CASES:
        gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=3))
        for streamed, plain in (
            (jsonio._generated_document(gen, family, stream=True), encode_generated(gen, family)),
            (jsonio._maps_document(gen.space, gen.maps, stream=True), encode_maps(gen.space, gen.maps)),
        ):
            fh = io.StringIO()
            encode_document(streamed, fh)
            assert fh.getvalue() == json.dumps(plain, separators=(",", ":"), allow_nan=False) + "\n"


def test_streamed_documents_hold_each_transfer_array():
    # no list of entries is built before `encode_document` writes them
    gen = generate(GenSpec(family="mn_chain", n=3, m=3, seed=0))
    for doc in (
        jsonio._generated_document(gen, "mn_chain", stream=True),
        jsonio._maps_document(gen.space, gen.maps, stream=True),
    ):
        assert len(doc["maps"]) == len(gen.maps)
        for encoded, f in zip(doc["maps"], gen.maps):
            assert encoded["transfer"]["data"] is f.transfer


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (5, 2)])
def test_streamed_matrix_of_any_shape(shape):
    M = np.arange(np.prod(shape), dtype=float).reshape(shape) - 1.5
    for A in (M, M + 1j * M[::-1] if M.size else M.astype(complex)):
        fh = io.StringIO()
        encode_document({"m": jsonio._matrix(A, stream=True)}, fh)
        assert fh.getvalue() == json.dumps({"m": encode_matrix(A)}, separators=(",", ":")) + "\n"


def test_streamed_matrix_refuses_nan_as_text_does():
    with pytest.raises(ValueError):
        encode_document({"m": jsonio._matrix(np.array([[1.0, np.nan]]), stream=True)}, io.StringIO())


# numbers that orjson, which writes streamed transfers, spells otherwise than
# repr (1e-05, 1e+16), the edges of repr's fixed point, and numbers with
# "0.0000" inside them
SPELLINGS = (
    0.0, -0.0, 5e-324, 1e-17, 1e-05, 9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16,
    1.7976931348623157e308, 1e-07, 2.5e-10, 1.2345678901234568e17, 10.00001, 100.000012,
)


@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
@pytest.mark.parametrize("row_entries", [1, 7, 2**12], ids=["one-row-blocks", "odd-blocks", "default-blocks"])
def test_streamed_transfers_spell_every_number_as_json_dumps(monkeypatch, field, row_entries):
    monkeypatch.setattr(jsonio, "_ROW_ENTRIES", row_entries)
    space = SpaceTag(SpaceKind.FULL, field, 3)
    signed = np.array(SPELLINGS + tuple(-x for x in SPELLINGS))
    T = np.resize(signed, (9, 9))
    if field is Field.COMPLEX:
        T = T + 1j * np.resize(signed[::-1], (9, 9))
    maps = [LinMap(space, space, T), LinMap(space, space, T.T.copy())]
    fh = io.StringIO()
    encode_document(jsonio._maps_document(space, maps, stream=True), fh)
    assert fh.getvalue() == json.dumps(encode_maps(space, maps), separators=(",", ":"), allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("imag", [False, True], ids=["real-part", "imaginary-part"])
def test_streamed_matrix_refuses_non_finite_numbers_as_json_dumps_does(bad, imag):
    A = np.array([[1e-05, 1e16], [2.0, 3.0]], dtype=complex if imag else float)
    A[1, 0] = complex(2.0, bad) if imag else bad
    with pytest.raises(ValueError) as want:
        json.dumps(jsonio._entry_pairs(A), allow_nan=False)
    with pytest.raises(ValueError) as got:
        encode_document({"m": jsonio._matrix(A, stream=True)}, io.StringIO())
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", [[], [1.0], [1.0, 0.0, 2.0]])
def test_matrix_entry_pairs_hold_two_numbers(entry):
    data = [[0.0, 0.0]] * 3 + [entry]
    with pytest.raises(InvalidParameterError) as exc:
        decode_matrix({"rows": 2, "cols": 2, "field": "complex", "data": data})
    assert str(exc.value) == (
        "malformed matrix object: every entry must be a number or a [real, imag] pair of numbers"
    )


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "bogus", "field": "real", "n": 3}, "malformed space object: 'bogus' is not a valid SpaceKind"),
        ({"kind": "Hermitian", "field": "bogus", "n": 3}, "malformed space object: 'bogus' is not a valid Field"),
        ({"kind": "bogus"}, "malformed space object: 'field'"),
        ({"kind": "bogus", "field": "real", "n": 0}, "malformed space object: 'bogus' is not a valid SpaceKind"),
        ({"kind": "Hermitian", "field": "real", "n": 0}, "space size must be a positive integer, got n=0"),
    ],
)
def test_decode_space_names_what_is_malformed(obj, message):
    with pytest.raises(InvalidParameterError) as exc:
        decode_space(obj)
    assert str(exc.value) == message


def _nested(depth: int):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


_DEEP = "[[[[[[[...]]]]]]]"


@pytest.mark.parametrize("depth", [998, 1500, 20_000])
@pytest.mark.parametrize(
    "path, message",
    [
        (("space", "n"), f"malformed space object: n must be an integer, got {_DEEP}"),
        (("space", "kind"), f"malformed space object: {_DEEP} is not a valid SpaceKind"),
        (("maps", 0, "transfer", "rows"), f"malformed matrix object: rows must be an integer, got {_DEEP}"),
        (("maps", 0, "transfer", "field"), f"malformed matrix object: field must be 'real' or 'complex', got {_DEEP}"),
    ],
    ids=["space-n", "space-kind", "rows", "field"],
)
def test_a_deeply_nested_value_is_refused_by_its_field(path, message, depth):
    # the decoders' messages repr'd the value whole, which raised a bare RecursionError
    doc = encode_generated(generate(GenSpec(family="mn_chain", n=2, m=3, seed=0)), "mn_chain")
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = _nested(depth)
    with pytest.raises(InvalidParameterError) as exc:
        decode_maps_document(doc)
    assert str(exc.value) == message



def test_a_deeply_nested_object_is_refused_by_its_form_parameter():
    doc = encode_generated(generate(GenSpec(family="pn_pair", n=2, m=2, seed=0)), "pn_pair")
    value = True
    for _ in range(20_000):
        value = {"k": value}
    doc["form"]["params"]["transpose"] = value
    with pytest.raises(InvalidParameterError) as exc:
        decode_maps_document(doc)
    assert str(exc.value) == "transpose must be a boolean, got {'k': {'k': {'k': {'k': {'k': {'k': {...}}}}}}}"

def test_decode_document_reads_what_encode_document_writes():
    doc = encode_generated(generate(GenSpec(family="herm_odd", n=3, m=3, seed=1)), "herm_odd")
    out = io.StringIO()
    encode_document(doc, out)
    assert decode_document(io.StringIO(out.getvalue())) == json.loads(out.getvalue())


@pytest.mark.parametrize(
    "text, message",
    [
        ("this is not json", "malformed JSON: "),
        ("", "malformed JSON: "),
        ('{"n": NaN}', "malformed JSON: "),
        ("[" * 1001 + "]" * 1001, "the maps document is nested too deeply"),
    ],
    ids=["not-json", "empty", "NaN", "nested"],
)
def test_decode_document_refuses_what_it_cannot_read(text, message):
    with pytest.raises(InvalidParameterError) as exc:
        decode_document(io.StringIO(text))
    assert str(exc.value).startswith(message)


def test_brackets_inside_strings_do_not_nest():
    text = '["' + "[" * 2000 + '", "\\\"' + "{" * 2000 + '"]'
    assert decode_document(io.StringIO(text)) == json.loads(text)

