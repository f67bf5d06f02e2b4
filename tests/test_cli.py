import copy
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import traceprod
from traceprod import (
    Field,
    GenSpec,
    HermOdd,
    InvalidParameterError,
    SingularMatrixError,
    SpaceKind,
    SpaceTag,
    dualize,
    embed_extend_pair,
    from_canonical,
    generate,
    identity_map,
    span_of,
)
from traceprod import cli
from traceprod.cli import run
from traceprod.jsonio import decode_maps_document, decode_matrix, encode_generated, encode_linmap, encode_maps, encode_space
from conftest import ill_conditioned_diag_preservers, move_first_transfer
from test_jsonio import ROUND_TRIP_CASES

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def _parse(out: str):
    """The one document a command printed: one line of strict JSON."""
    assert out.endswith("\n") and out.count("\n") == 1
    return json.loads(out, parse_constant=_strict)


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, _parse(out) if out.strip() else None


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_generate_then_check(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "herm_odd", "--n", "3", "--m", "3", "--seed", "4"])
    assert code == 0
    assert doc["family"] == "herm_odd"
    assert len(doc["maps"]) == 3
    path = _write(tmp_path, "maps.json", doc)
    code, report = _run(capsys, ["check", "--maps", path])
    assert code == 0
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9


def test_check_failing_pair_exits_one(tmp_path, capsys):
    tag = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
    f = identity_map(tag)
    doc = [encode_linmap(f), encode_linmap(f)]
    # doctor the first transfer into a scaling
    for row in doc[0]["transfer"]["data"]:
        row[0] *= 2.0
    path = _write(tmp_path, "bad.json", doc)
    code, report = _run(capsys, ["check", "--maps", path])
    assert code == 1
    assert report["pass"] is False


def test_check_reads_stdin(capsys, monkeypatch):
    code, doc = _run(capsys, ["generate", "--family", "diag_pair", "--n", "3", "--m", "2", "--seed", "1"])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, report = _run(capsys, ["check", "--maps", "-"])
    assert code == 0 and report["pass"]


@pytest.mark.parametrize(
    "text, message",
    [("5", "expected a list of maps or a document with a maps key"), ('{"maps": []}', "maps must be a nonempty list")],
    ids=["a-number", "no-maps"],
)
def test_check_refuses_a_document_that_holds_no_maps(capsys, monkeypatch, text, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, err = _run(capsys, ["check", "--maps", "-"])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"
    assert err["error"]["message"] == message


def test_decompose_of_a_one_by_one_pn_pair_has_one_branch(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "1", "--m", "2"])
    path = _write(tmp_path, "pair.json", doc)
    code, result = _run(capsys, ["decompose", "--maps", path])
    assert code == 0
    assert result["form"]["form"] == "PnPair" and result["form"]["params"]["transpose"] is False
    assert "n = 1: branches coincide" in result["gauge_note"]
    assert result["diagnostics"]["precheck_ran"] is False


@pytest.mark.parametrize("family, field", [("mn_chain", "complex"), ("sym_odd", "complex")])
def test_generate_at_condition_bound_one_exits_two(capsys, family, field):
    # no drawn matrix but a scalar multiple of a unitary has condition number 1
    argv = ["generate", "--family", family, "--field", field, "--n", "3", "--m", "3", "--condition-bound", "1"]
    code, err = _run(capsys, argv)
    assert code == 2
    assert err["error"]["code"] == "SingularMatrixError"
    assert err["error"]["message"].startswith("could not sample a ")


def test_decompose_pipe(tmp_path, capsys):
    code, doc = _run(
        capsys,
        ["generate", "--family", "diag_chain", "--n", "3", "--m", "3", "--field", "real", "--seed", "2"],
    )
    path = _write(tmp_path, "chain.json", doc)
    code, result = _run(capsys, ["decompose", "--maps", path])
    assert code == 0
    assert result["form"]["form"] == "DiagChain"
    assert result["reconstruction_residual"] <= 1e-7


def test_decompose_prints_its_diagnostics(tmp_path, capsys):
    gen = generate(GenSpec(family="herm_odd", n=3, m=3, seed=3))
    off = from_canonical(HermOdd(gen.form.U * (1 + 1e-9), (2.0, 0.5, 1.0)), gen.space)
    keys = ["space", "form", "reconstruction_residual", "gauge_note", "diagnostics"]
    for maps, ran in ((gen.maps, False), (off, True)):
        path = _write(tmp_path, "maps.json", [encode_linmap(f) for f in maps])
        code, result = _run(capsys, ["decompose", "--maps", path])
        assert code == 0 and list(result) == keys
        diagnostics = result["diagnostics"]
        assert diagnostics["precheck_ran"] is ran and ("max_residual" in diagnostics) is ran
        assert (diagnostics["rebuild_delta"] <= 1e-10) is not ran
        assert diagnostics["invariant_deviation"] <= 1e-10


def test_decompose_family_override(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "2", "--m", "2", "--seed", "3"])
    path = _write(tmp_path, "pair.json", doc)
    code, result = _run(capsys, ["decompose", "--maps", path, "--family", "pn_pair"])
    assert code == 0
    assert result["form"]["form"] == "PnPair"


def test_decompose_structureless_tuple_exits_two(tmp_path, capsys):
    # a Hadamard pair has no bijective chain decomposition at m=2
    code, doc = _run(capsys, ["generate", "--family", "hadamard", "--n", "2", "--m", "2", "--seed", "3"])
    path = _write(tmp_path, "had.json", doc)
    code, err = _run(capsys, ["decompose", "--maps", path])
    assert code == 2
    assert err["error"]["code"] == "NotApplicableError"


def test_dualize_roundtrip_through_check(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "sym_odd", "--n", "3", "--m", "3", "--seed", "5"])
    path = _write(tmp_path, "sym.json", doc)
    code, dual_doc = _run(capsys, ["dualize", "--maps", path, "--index", "0"])
    assert code == 0
    assert dual_doc["m"] == 2
    path2 = _write(tmp_path, "dual.json", dual_doc)
    code, report = _run(capsys, ["check", "--maps", path2])
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("command", ["check", "decompose", "dualize"])
def test_document_space_other_than_its_maps_domain_exits_two(tmp_path, capsys, command):
    # decompose and dualize used to copy the space into their output, beside
    # 8 x 8 MnChain parameters or maps, and exit 0
    code, doc = _run(capsys, ["generate", "--family", "mn_chain", "--n", "8", "--m", "3"])
    doc["space"] = {"kind": "Hermitian", "field": "real", "n": 3}
    code, err = _run(capsys, [command, "--maps", _write(tmp_path, "edited.json", doc)])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"
    assert '"space" spans Symmetric real matrices of size 3' in err["error"]["message"]


def test_extend_command(tmp_path, capsys):
    # corner-supported congruence pair from M_2 into M_3
    rng = np.random.default_rng(0)
    S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 0.4 * np.eye(3)
    Sinv = np.linalg.inv(S)
    from traceprod import linmap_from_images, space_basis

    dom = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)
    cod = SpaceTag(SpaceKind.FULL, Field.COMPLEX, 3)
    pad = np.zeros((4, 3, 3), dtype=complex)
    pad[:, :2, :2] = np.stack(space_basis(dom).elements)
    f1 = linmap_from_images(dom, cod, list(S @ pad @ S.conj().T))
    f2 = linmap_from_images(dom, cod, list(Sinv.conj().T @ pad @ Sinv))
    doc = {"space": encode_space(dom), "maps": [encode_linmap(f1), encode_linmap(f2)]}
    path = _write(tmp_path, "corner.json", doc)
    code, out = _run(capsys, ["extend", "--maps", path])
    assert code == 0
    maps, _ = decode_maps_document(out)
    assert maps[0].domain.n == 3
    path2 = _write(tmp_path, "extended.json", out)
    code, report = _run(capsys, ["check", "--maps", path2, "--tol", "1e-8"])
    assert code == 0 and report["pass"]


def test_certify_command(capsys):
    code, cert = _run(capsys, ["certify", "--n", "3", "--k", "2", "--trials", "5"])
    assert code == 0
    assert cert["certifies_impossibility"] is True
    assert cert["gram_lhs_rank"] <= 4 < 9 == cert["gram_rhs_rank"]


def test_certify_rejects_nonshrinking(capsys):
    code, err = _run(capsys, ["certify", "--n", "2", "--k", "3"])
    assert code == 2
    assert err["error"]["code"] == "NotApplicableError"


def test_certify_size_too_large_to_allocate_exits_two(capsys, monkeypatch):
    # stands in for numpy failing to allocate at a huge --n, which a real call
    # would reach only after touching gigabytes on a host that overcommits
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("traceprod.extend.infeasibility_certificate", refuse)
    code, err = _run(capsys, ["certify", "--n", "1000", "--k", "1"])
    assert code == 2
    assert err["error"]["code"] == "MemoryError"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "100000", "--k", "1"],
        ["certify", "--n", "10000000000", "--k", "1"],
        ["generate", "--family", "mn_chain", "--n", "10000000000", "--m", "3"],
    ],
)
def test_size_numpy_refuses_to_allocate_exits_two(capsys, argv):
    # numpy refuses these arrays by arithmetic on their size or byte count,
    # before touching memory; the refusal used to end in a traceback, exit 1
    code, err = _run(capsys, argv)
    assert code == 2
    assert err["error"]["code"] == "ValueError"
    assert err["error"]["message"].startswith(("array is too big", "Maximum allowed dimension exceeded"))


def test_weighted_command(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "pn_chain", "--n", "3", "--m", "2", "--seed", "6"])
    path = _write(tmp_path, "pn.json", doc)
    code, report = _run(capsys, ["weighted", "--maps", path, "--alpha", "1,1", "--beta", "1,1", "--trials", "200"])
    assert code == 0 and report["pass"]


def test_weighted_mismatch_exits_one(tmp_path, capsys):
    tag = SpaceTag(SpaceKind.HERMITIAN, Field.COMPLEX, 2)
    doc = [encode_linmap(identity_map(tag)), encode_linmap(identity_map(tag))]
    path = _write(tmp_path, "id.json", doc)
    code, report = _run(capsys, ["weighted", "--maps", path, "--alpha", "1,1", "--beta", "2,2", "--trials", "100"])
    assert code == 1
    assert report["pass"] is False


@pytest.mark.parametrize("alpha, beta", [("nan,2,2", "2,2,2"), ("2,2,2", "nan,2,2")])
def test_weighted_non_finite_exponent_exits_two(tmp_path, capsys, alpha, beta):
    # a NaN exponent used to run the check and exit 1 with max residual inf
    code, doc = _run(capsys, ["generate", "--family", "pn_chain", "--n", "2", "--m", "3"])
    path = _write(tmp_path, "pn.json", doc)
    code, err = _run(capsys, ["weighted", "--maps", path, "--alpha", alpha, "--beta", beta])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


def test_weighted_zero_beta_exits_two(tmp_path, capsys):
    # beta = 0 leaves the reduced identity undefined; it ran and exited 1 with max residual 629
    code, doc = _run(capsys, ["generate", "--family", "pn_chain", "--n", "8", "--m", "3"])
    path = _write(tmp_path, "pn.json", doc)
    code, err = _run(capsys, ["weighted", "--maps", path, "--alpha", "2,2,2", "--beta", "0,2,2"])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"
    assert "beta weights must be nonzero" in err["error"]["message"]


@pytest.mark.parametrize("family", ["diag_chain", "diag_pair"])
def test_decompose_ill_conditioned_preserver_exits_one(tmp_path, capsys, family):
    # a preserver whose parameters from_canonical refuses: the chain exited 2
    maps = ill_conditioned_diag_preservers()[family]
    path = _write(tmp_path, "maps.json", [encode_linmap(f) for f in maps])
    code, err = _run(capsys, ["decompose", "--maps", path])
    assert code == 1
    assert err["error"]["code"] == "CanonicalStructureError"


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("this is not json")
    code, err = _run(capsys, ["check", "--maps", str(p)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_deeply_nested_json_exits_two(capsys, monkeypatch, command):
    # json.loads raised RecursionError, a traceback with exit 1
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 5000 + "]" * 5000))
    code, err = _run(capsys, [command, "--maps", "-"])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


def test_non_utf8_maps_file_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\xff\xfe\x00garbage")
    code, err = _run(capsys, ["check", "--maps", str(p)])
    assert code == 2
    assert err["error"]["code"] == "UnicodeDecodeError"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        # json.dumps writes NaN and Infinity literals, which JSON has not
        pytest.param(("maps", 0, "transfer", "data", 0), [math.nan, 0.0], "malformed JSON: ", id="NaN"),
        pytest.param(("maps", 0, "transfer", "data", 0), [0.0, math.inf], "malformed JSON: ", id="Infinity"),
        # an integer beyond 64 bits reads as a float, which no size is
        pytest.param(("space", "n"), 2**64, "malformed space object: n must be an integer, got 1.8", id="n-2**64"),
        pytest.param(
            ("maps", 0, "transfer", "rows"), 2**64, "malformed matrix object: rows must be an integer, got 1.8",
            id="rows-2**64",
        ),
        pytest.param(("family",), "\ud800", "malformed JSON: ", id="lone-surrogate"),
    ],
)
def test_documents_refused_at_parse_exit_two(tmp_path, capsys, path, value, message):
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    doc = encode_generated(gen, "mn_chain")
    _set(doc, path, value)
    code, err = _run(capsys, ["check", "--maps", _write(tmp_path, "bad.json", doc)])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"
    assert err["error"]["message"].startswith(message)


@pytest.mark.parametrize(
    "prefix",
    ["", '{"family": "' + "]" * 300_000 + '", "maps": ', '{"family": "\\"' + "]" * 300_000 + '", "maps": '],
    ids=["bare", "behind-closers-in-a-string", "behind-an-escaped-quote"],
)
def test_a_document_nested_beyond_the_parser_stack_exits_two(prefix):
    # orjson builds nested values by recursion: 200 000 levels overflowed the
    # C stack, and the process died of SIGSEGV
    text = prefix + "[" * 200_000 + "]" * 200_000 + ("}" if prefix else "")
    proc = subprocess.run(
        [sys.executable, "-m", "traceprod.cli", "check", "--maps", "-"],
        input=text, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    err = _parse(proc.stdout)["error"]
    assert (err["code"], err["message"]) == ("InvalidParameterError", "the maps document is nested too deeply")
    assert "Traceback" not in proc.stderr


def test_a_value_nested_under_the_scan_bound_exits_two_with_its_field_message(capsys, monkeypatch):
    # 995 levels pass the nesting scan and the parse; the decode's message reprs the value to six levels
    doc = encode_generated(generate(GenSpec(family="mn_chain", n=2, m=3, seed=0)), "mn_chain")
    doc["space"]["n"] = "NESTED"
    text = json.dumps(doc).replace('"NESTED"', "[" * 995 + "1" + "]" * 995)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, err = _run(capsys, ["check", "--maps", "-"])
    assert code == 2
    assert (err["error"]["code"], err["error"]["message"]) == (
        "InvalidParameterError", "malformed space object: n must be an integer, got [[[[[[[...]]]]]]]"
    )


def _stage(argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "traceprod.cli", *argv], capture_output=True, timeout=120,
        env=None if env is None else {**os.environ, **env}, **kwargs,
    )


def _same_as_from_a_file(path, env=None) -> subprocess.CompletedProcess:
    """`check` of the file `path` by `--maps PATH` and by `--maps -`, which must agree."""
    from_file = _stage(["check", "--maps", str(path)], env)
    with open(path, "rb") as fh:
        from_stdin = _stage(["check", "--maps", "-"], env, stdin=fh)
    assert (from_stdin.returncode, from_stdin.stdout) == (from_file.returncode, from_file.stdout)
    assert "Traceback" not in from_stdin.stderr.decode(errors="replace")
    return from_stdin


def test_stdin_that_is_not_utf8_is_refused_as_a_file_is(tmp_path):
    # stdin was read with surrogateescape and refused as "malformed JSON: str is not valid UTF-8"
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    proc = _same_as_from_a_file(path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "UnicodeDecodeError"


def test_stdin_is_read_as_utf8_whatever_the_io_encoding(tmp_path):
    # under PYTHONIOENCODING=ascii stdin refused the "é" that a file passed
    doc = encode_generated(generate(GenSpec(family="mn_chain", n=2, m=3, seed=0)), "mn_chain")
    doc["family"] = "mn_chainé"
    path = tmp_path / "accented.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    proc = _same_as_from_a_file(path, {"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.skipif(os.name != "posix", reason="closes the child's stdin before it starts")
def test_reading_a_closed_stdin_exits_two():
    # sys.stdin is None: the read was an AttributeError traceback with exit 1
    proc = _stage(["check", "--maps", "-"], stdin=None, preexec_fn=lambda: os.close(0))
    assert proc.returncode == 2, proc.stderr[-2000:]
    err = _parse(proc.stdout.decode())["error"]
    assert (err["code"], err["message"]) == ("InvalidParameterError", "--maps - reads stdin, which is closed")
    assert b"Traceback" not in proc.stderr


def test_run_with_no_stdin_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    code, err = _run(capsys, ["decompose", "--maps", "-"])
    assert code == 2
    assert err["error"]["message"] == "--maps - reads stdin, which is closed"


def test_non_integer_space_size_exits_two(tmp_path, capsys):
    f = identity_map(SpaceTag(SpaceKind.FULL, Field.COMPLEX, 1))
    doc = [encode_linmap(f), encode_linmap(f)]
    doc[0]["domain"]["n"] = 1.5
    path = _write(tmp_path, "half.json", doc)
    code, err = _run(capsys, ["check", "--maps", path])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


def test_check_zero_trials_exits_two(tmp_path, capsys):
    f = identity_map(SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2))
    path = _write(tmp_path, "id.json", [encode_linmap(f), encode_linmap(f)])
    code, err = _run(capsys, ["check", "--maps", path, "--mode", "randomized", "--trials", "0"])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


@pytest.mark.parametrize("entry", [[1.0, 0.0, 2.0], "one", True, "1.5", [True, 0.0], pytest.param(10**400, id="huge-int")])
def test_check_malformed_matrix_entry_exits_two(tmp_path, capsys, entry):
    f = identity_map(SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2))
    doc = [encode_linmap(f), encode_linmap(f)]
    doc[0]["transfer"]["data"][0] = entry
    path = _write(tmp_path, "bad.json", doc)
    code, err = _run(capsys, ["check", "--maps", path])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


@pytest.mark.parametrize(
    "argv",
    [["check"], ["check", "--mode", "randomized", "--trials", "5"], ["decompose"]],
    ids=["exhaustive", "randomized", "decompose-precheck"],
)
def test_non_finite_residual_prints_null(tmp_path, capsys, argv):
    # products of transfers scaled by 1e200 overflow, so the residual is not finite
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    docs = [encode_linmap(f) for f in gen.maps]
    for doc in docs:
        doc["transfer"]["data"] = [[1e200 * re, 1e200 * im] for re, im in doc["transfer"]["data"]]
    path = _write(tmp_path, "scaled.json", docs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(capsys, [*argv[:1], "--maps", path, *argv[1:]])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if argv[0] == "check":
        assert out["pass"] is False and out["max_residual"] is None
    else:
        assert out["error"]["context"] == {"max_residual": None}


@pytest.mark.parametrize("alpha", ["2.5,2,2", "0.5,2,2", "-1,2,2"])
def test_weighted_non_finite_image_exits_one_with_an_infinite_residual(tmp_path, capsys, alpha):
    # the first transfer scaled by 1.7e308 overflows its images at every power,
    # and numpy's eigh refuses a matrix with an infinite entry
    gen = generate(GenSpec(family="pn_chain", n=3, m=3, seed=0))
    docs = [encode_linmap(f) for f in gen.maps]
    docs[0]["transfer"]["data"] = [[1.7e308 * re, 1.7e308 * im] for re, im in docs[0]["transfer"]["data"]]
    path = _write(tmp_path, "big.json", docs)
    code = run(["weighted", "--maps", path, f"--alpha={alpha}", "--beta", "1,1,1", "--trials", "20"])
    captured = capsys.readouterr()
    assert code == 1 and _parse(captured.out)["max_residual"] is None
    assert captured.err == "weighted identity fails: max residual inf\n"


def test_weighted_overflow_warns_nothing(tmp_path, capsys):
    # an overflowing weighted power reads as an infinite residual, without numpy's warnings
    gen = generate(GenSpec(family="pn_chain", n=2, m=3, seed=0))
    docs = [encode_linmap(f) for f in gen.maps]
    docs[0]["transfer"]["data"] = [[1e200 * re, 1e200 * im] for re, im in docs[0]["transfer"]["data"]]
    path = _write(tmp_path, "scaled.json", docs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(capsys, ["weighted", "--maps", path, "--alpha", "2,0.5,0.5", "--beta", "2,0.5,0.5"])
    assert code == 1 and out["pass"] is False and out["max_residual"] is None
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["check", "dualize", "decompose", "extend", "weighted"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_non_finite_tol_exits_two(tmp_path, capsys, command, tol):
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "2", "--m", "2", "--seed", "3"])
    path = _write(tmp_path, "pair.json", doc)
    extra = ["--alpha", "1,1", "--beta", "1,1"] if command == "weighted" else []
    code, err = _run(capsys, [command, "--maps", path, f"--tol={tol}", *extra])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


@pytest.mark.parametrize("command", ["check", "dualize", "decompose", "extend", "weighted"])
def test_a_refused_tol_is_the_library_refusal(tmp_path, capsys, command):
    # the command line read --tol itself before the library did, as "--tol must be ..."
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "2", "--m", "2"])
    path = _write(tmp_path, "pair.json", doc)
    extra = ["--alpha", "1,1", "--beta", "1,1"] if command == "weighted" else []
    code = run([command, "--maps", path, "--tol=-1", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert _parse(captured.out)["error"]["message"] == "tol must be finite and nonnegative, got -1.0"
    assert captured.err == "error: tol must be finite and nonnegative, got -1.0\n"


@pytest.mark.parametrize(
    "command, family",
    [("check", "mn_chain"), ("dualize", "mn_chain"), ("decompose", "mn_chain"), ("extend", "hadamard"), ("weighted", "pn_chain")],
)
def test_negative_tol_exits_two(tmp_path, capsys, command, family):
    # no residual is below a negative tol: check and weighted failed valid
    # tuples, decompose failed its rebuild, dualize lifted its condition limit
    m = "2" if family == "hadamard" else "3"
    code, doc = _run(capsys, ["generate", "--family", family, "--n", "2", "--m", m])
    path = _write(tmp_path, "maps.json", doc)
    extra = ["--alpha", "1,1,1", "--beta", "1,1,1"] if command == "weighted" else []
    code, err = _run(capsys, [command, "--maps", path, "--tol", "-1", *extra])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "mn_chain", "--n", "2", "--m", "3"],
        ["certify", "--n", "3", "--k", "2"],
        ["weighted", "--maps", "{maps}", "--alpha", "1,1", "--beta", "1,1"],
        ["check", "--maps", "{maps}", "--mode", "randomized"],
    ],
    ids=["generate", "certify", "weighted", "check-randomized"],
)
def test_negative_seed_exits_two(tmp_path, capsys, argv):
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "2", "--m", "2", "--seed", "3"])
    path = _write(tmp_path, "pair.json", doc)
    code, err = _run(capsys, [path if a == "{maps}" else a for a in argv] + ["--seed", "-1"])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


def test_decompose_rebuild_beyond_tol_exits_one(tmp_path, capsys):
    gen = generate(GenSpec(family="sym_odd", n=4, m=3, field=Field.REAL, seed=0))
    path = _write(tmp_path, "moved.json", [encode_linmap(f) for f in move_first_transfer(gen.maps, 1e-7)])
    code, err = _run(capsys, ["decompose", "--maps", path])
    assert code == 1
    assert err["error"]["code"] == "CanonicalStructureError"


def test_decompose_non_boolean_form_flag_exits_two(tmp_path, capsys):
    code, doc = _run(capsys, ["generate", "--family", "pn_pair", "--n", "2", "--m", "2", "--seed", "3"])
    doc["form"]["params"]["transpose"] = "false"
    path = _write(tmp_path, "pair.json", doc)
    code, err = _run(capsys, ["decompose", "--maps", path])
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"


def test_missing_file_exits_two(capsys):
    code, err = _run(capsys, ["check", "--maps", "/no/such/file.json"])
    assert code == 2


def test_console_script_pipeline():
    gen = subprocess.run(
        [sys.executable, "-m", "traceprod.cli", "generate", "--family", "mn_chain", "--n", "2", "--m", "3"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    chk = subprocess.run(
        [sys.executable, "-m", "traceprod.cli", "check", "--maps", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert chk.returncode == 0
    # each prints one line of strict JSON
    for proc in (gen, chk):
        assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
    _parse(gen.stdout)
    assert _parse(chk.stdout)["pass"] is True


def test_cli_import_leaves_scipy_out():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, traceprod.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_exhaustive_check_leaves_numpy_random_out():
    # a seed check that built a Generator imported numpy.random, about 6 MB
    # of RSS, into every process that draws nothing
    code = (
        "import sys; from traceprod import Field, SpaceKind, SpaceTag, check_preservation, identity_map; "
        "f = identity_map(SpaceTag(SpaceKind.FULL, Field.COMPLEX, 2)); "
        "assert check_preservation([f, f], seed=3).passed; "
        "print('numpy.random' in sys.modules)"
    )
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_run_leaves_the_collector_alone(tmp_path, capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    code, doc = _run(capsys, ["generate", "--family", "mn_chain", "--n", "3", "--m", "3"])
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    code, _ = _run(capsys, ["check", "--maps", _write(tmp_path, "maps.json", doc)])
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    doc["maps"][0]["transfer"]["data"][0][0] += 1e-3
    code, _ = _run(capsys, ["check", "--maps", _write(tmp_path, "moved.json", doc)])
    assert code == 1
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_main_freezes_the_import_heap_before_it_runs():
    # importing the command line freezes nothing and leaves the collector
    # enabled; main() freezes the import-time heap before it dispatches to run()
    code = (
        "import gc; from traceprod import cli; "
        "print(gc.get_freeze_count() == 0 and gc.isenabled()); "
        "cli.run = lambda: print(gc.get_freeze_count() > 0 and gc.isenabled()) or 0; "
        "cli.main()"
    )
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["True", "True"]


def _probe(code: str) -> list:
    """The JSON that `code` prints last, run in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.splitlines()[-1])


def test_cli_import_pauses_the_collector_over_numpy_and_the_library():
    # an import hook reads the collector's state as each numpy and traceprod
    # module is found
    code = (
        "import gc, importlib.abc, json, sys\n"
        "found = []\n"
        "class Spy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.split('.')[0] in ('numpy', 'traceprod') and name not in ('traceprod', 'traceprod.cli'):\n"
        "            found.append([name, gc.isenabled()])\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import traceprod.cli\n"
        "print(json.dumps(found))"
    )
    found = _probe(code)
    names = {name for name, _ in found}
    assert {"numpy", "numpy.linalg", "traceprod.errors", "traceprod.spaces", "traceprod.jsonio"} <= names
    assert [name for name, enabled in found if enabled] == []


def test_a_stage_runs_no_collection_over_its_imports():
    # `python -m traceprod.cli`, as a stage runs, with a gc callback noting
    # whether numpy was loaded at each collection before the freeze: 35 ran
    # over numpy's and the library's import-time objects, where now only the
    # compile of cli.py, before numpy loads, may set one off
    code = (
        "import gc, json, runpy, sys\n"
        "collections, freeze = [], gc.freeze\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append('numpy' in sys.modules))\n"
        "gc.freeze = lambda: collections.append('freeze') or freeze()\n"
        "sys.argv = ['traceprod', 'certify', '--n', '2', '--k', '1']\n"
        "try:\n    runpy.run_module('traceprod.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n    status = exc.code\n"
        "print(json.dumps([status, collections[:collections.index('freeze')]]))"
    )
    status, before = _probe(code)
    assert status == 0
    assert True not in before


def test_the_installed_script_runs_no_collection_over_its_imports():
    # the function that pyproject.toml names for the `traceprod` script, called
    # as the script pip generates calls it; a script that imported `cli` and
    # then called main() ran one collection with numpy loaded
    entry = re.search(r'^traceprod = "([\w.]+):(\w+)"$', _PYPROJECT.read_text(), re.M)
    assert entry, "pyproject.toml names no `traceprod` script"
    module, function = entry.groups()
    code = (
        "import gc, json, sys\n"
        "collections, freeze = [], gc.freeze\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append('numpy' in sys.modules))\n"
        "gc.freeze = lambda: collections.append('freeze') or freeze()\n"
        "sys.argv = ['traceprod', 'certify', '--n', '2', '--k', '1']\n"
        f"from {module} import {function}\n"
        f"try:\n    sys.exit({function}())\n"
        "except SystemExit as exc:\n    status = exc.code\n"
        "print(json.dumps([status, collections[:collections.index('freeze')]]))"
    )
    status, before = _probe(code)
    assert status == 0
    assert True not in before


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_import_leaves_the_collector_as_the_caller_had_it(enabled):
    code = (
        "import gc, json\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "import traceprod.cli\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    )
    assert _probe(code) == [enabled, 0]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_loads_the_subcommand_module_with_the_collector_paused(enabled):
    # main() pauses the collector over the subcommand's import and the freeze,
    # then hands run() the collector as the caller had it
    code = (
        "import gc, json, sys\n"
        "from traceprod import cli\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "seen, load, freeze = [], cli._load, gc.freeze\n"
        "cli._load = lambda module: seen.append(['load', module, gc.isenabled()]) or load(module)\n"
        "gc.freeze = lambda: seen.append(['freeze', gc.isenabled()]) or freeze()\n"
        "cli.run = lambda: seen.append(['run', gc.isenabled(), 'traceprod.weighted' in sys.modules]) or 0\n"
        "sys.argv = ['traceprod', 'weighted']\n"
        "try:\n    cli.main()\nexcept SystemExit as exc:\n    status = exc.code\n"
        "print(json.dumps([status, seen, gc.isenabled()]))"
    )
    status, seen, after = _probe(code)
    assert status == 0
    assert seen == [["load", "weighted", False], ["freeze", False], ["run", enabled, True]]
    assert after is enabled


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_two_writing_nothing_more(monkeypatch, capsys):
    # the handler used to emit an error document into the same closed stdout
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["generate", "--family", "mn_chain", "--n", "3", "--m", "3"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_closed_after_ten_bytes_exits_two_without_traceback(unbuffered):
    # buffered, the closed pipe shows first in the interpreter's flush at exit
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "traceprod.cli", "generate", "--family", "mn_chain", "--n", "8", "--m", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert "Traceback" not in err and "Exception ignored" not in err


def _paths(tree, path=()):
    """The path of every node below the root of a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _mutate(doc, rng) -> str:
    """One seeded mutation of a document, as JSON text: a deleted key or
    entry, a value of another type, a non-finite or out-of-range number,
    truncated text, or a value nested thousands of lists deep."""
    doc = copy.deepcopy(doc)
    kind = int(rng.integers(5))
    paths = list(_paths(doc))
    if kind == 2:  # numbers go where numbers were
        paths = [p for p in paths if type(_at(doc, p)) in (int, float)]
    path = paths[int(rng.integers(len(paths)))]
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == 0:
        del parent[key]
    elif kind == 1:
        parent[key] = [None, True, "x", [], {}, 3, 0.5, [[1.0, 0.0]]][int(rng.integers(8))]
    elif kind == 2:
        parent[key] = [math.nan, math.inf, -math.inf, 1e308, -1, 10**30, 0, 2.5][int(rng.integers(8))]
    elif kind == 4:
        parent[key] = "DEEP"
    text = json.dumps(doc)
    if kind == 3:
        return text[: int(rng.integers(len(text)))]
    depth = int(rng.choice([60, 900, 5000]))
    return text.replace('"DEEP"', "[" * depth + "]" * depth)


def test_cli_fuzz_mutated_documents_exit_cleanly(capsys, monkeypatch):
    # every mutation of a generated document ends in exit 0, 1 or 2 with one
    # JSON line on stdout; an escaping exception fails the test with its traceback
    docs = []
    for family, n, m in (("herm_odd", 2, 3), ("mn_chain", 2, 3), ("pn_pair", 2, 2), ("diag_chain", 2, 3)):
        _, doc = _run(capsys, ["generate", "--family", family, "--n", str(n), "--m", str(m)])
        docs.append(doc)
    commands = [
        ["check"],
        ["check", "--mode", "randomized", "--trials", "16"],
        ["decompose"],
        ["dualize"],
        ["extend"],
        ["weighted", "--alpha", "1,1", "--beta", "1,1", "--trials", "16"],
    ]
    rng = np.random.default_rng(2026)
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(300):
            text = _mutate(docs[i % len(docs)], rng)
            argv = commands[int(rng.integers(len(commands)))]
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = run([argv[0], "--maps", "-", *argv[1:]])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (i, argv, text[:200])
            assert out.endswith("\n") and out.count("\n") == 1, (i, argv, out)
            assert "Traceback" not in err
            codes.append(code)
    assert codes.count(2) > 0 and codes.count(0) + codes.count(1) > 0


def _stdout(capsys, argv) -> str:
    assert run(argv) == 0
    return capsys.readouterr().out


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("family,n,m,field", ROUND_TRIP_CASES)
def test_streamed_stdout_equals_the_encoded_document(tmp_path, capsys, family, n, m, field):
    # generate, dualize and extend write each transfer's data from its array,
    # a block of rows at a time; the text is that of the public encoders' dicts
    gen = generate(GenSpec(family=family, n=n, m=m, field=field, seed=3))
    argv = ["generate", "--family", family, "--n", str(n), "--m", str(m), "--field", field.value, "--seed", "3"]
    text = _stdout(capsys, argv)
    assert text == _compact(encode_generated(gen, family))
    path = tmp_path / "maps.json"
    path.write_text(text)
    try:
        partner = dualize(gen.maps[0])
    except (InvalidParameterError, SingularMatrixError):  # not a bijection between equal spans
        partner = None
    if partner is not None:
        assert _stdout(capsys, ["dualize", "--maps", str(path)]) == _compact(encode_maps(gen.space, [gen.maps[0], partner]))
    if family == "nonextendable":
        path.write_text(json.dumps({**json.loads(text), "maps": json.loads(text)["maps"][:2]}))
        psi1, psi2 = embed_extend_pair(gen.maps[0], gen.maps[1], tol=1e-8)
        assert _stdout(capsys, ["extend", "--maps", str(path)]) == _compact(encode_maps(span_of(psi1.domain), [psi1, psi2]))


def test_generate_holds_no_list_of_every_entry(capsys):
    # the three 144 x 144 complex transfers as nested lists took 12.9 MB of
    # tracemalloc peak; written a block of rows at a time they take 2.7 MB
    argv = ["generate", "--family", "mn_chain", "--n", "12", "--m", "3"]
    _stdout(capsys, argv)  # warm the caches
    tracemalloc.start()
    try:
        text = _stdout(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6 + 2 * len(text)  # capsys keeps the text it captured


def test_generate_refuses_a_tuple_larger_than_physical_memory(capsys):
    # m = 10**12 maps, each small: no single allocation fails, so the size
    # is judged before sampling; one error document, exit 2, within 1 s
    start = time.perf_counter()
    code, err = _run(capsys, ["generate", "--family", "mn_chain", "--n", "3", "--m", str(10**12)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err["error"]["code"] == "InvalidParameterError"
    assert "physical memory" in err["error"]["message"]


def test_a_maps_document_text_is_dropped_before_the_decode(tmp_path, capsys, monkeypatch):
    gen = generate(GenSpec(family="mn_chain", n=2, m=3, seed=0))
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(encode_generated(gen, "mn_chain")))
    holds_text = []

    def decode(doc):
        holds_text.append("text" in sys._getframe(1).f_locals)
        return decode_maps_document(doc)

    monkeypatch.setattr(cli, "decode_maps_document", decode)
    assert _run(capsys, ["check", "--maps", str(path)])[0] == 0
    assert holds_text == [False]


def _document(tmp_path, family, n, m, keep=None) -> str:
    gen = generate(GenSpec(family=family, n=n, m=m, seed=0))
    return _write(tmp_path, f"{family}.json", encode_maps(gen.space, list(gen.maps)[:keep]))


# each subcommand's library call: its argv with required options only (DOC is
# the document `doc` names), the options that may be given, and the keywords
# each set reaches the call with
PASS_THROUGH = [
    ("GenSpec", ["generate", "--family", "sym_odd", "--n", "3", "--m", "3"], None,
     ["--field", "real", "--seed", "3", "--condition-bound", "50"],
     {"family": "sym_odd", "n": 3, "m": 3}, {"field": "real", "seed": 3, "condition_bound": 50.0}),
    ("check_preservation", ["check", "--maps", "DOC"], ("herm_odd", 3, 3),
     ["--tol", "1e-12", "--mode", "randomized", "--trials", "64", "--seed", "5", "--space", "PosDef"],
     {}, {"tol": 1e-12, "mode": "randomized", "trials": 64, "seed": 5,
          "sample_space": SpaceTag(SpaceKind.POSDEF, Field.COMPLEX, 3)}),
    ("dualize", ["dualize", "--maps", "DOC"], ("pn_pair", 2, 2), ["--index", "1", "--tol", "1e-6"], {}, {"tol": 1e-6}),
    ("decompose", ["decompose", "--maps", "DOC"], ("herm_odd", 3, 3), ["--family", "hermitian", "--tol", "1e-6"],
     {}, {"family": "hermitian", "tol": 1e-6}),
    ("embed_extend_pair", ["extend", "--maps", "DOC"], ("nonextendable", 2, 3, 2), ["--tol", "1e-6"], {}, {"tol": 1e-6}),
    ("infeasibility_certificate", ["certify", "--n", "3", "--k", "2"], None,
     ["--field", "real", "--trials", "5", "--seed", "4"], {"n": 3, "k": 2}, {"field": "real", "trials": 5, "seed": 4}),
    ("verify_weighted", ["weighted", "--maps", "DOC", "--alpha", "2,2,2", "--beta", "2,2,2"], ("pn_chain", 3, 3),
     ["--trials", "50", "--seed", "2", "--tol", "1e-6"],
     {"alpha": [2.0, 2.0, 2.0], "beta": [2.0, 2.0, 2.0]}, {"trials": 50, "seed": 2, "tol": 1e-6}),
]


@pytest.mark.parametrize("name, argv, doc, options, required, given", PASS_THROUGH, ids=[c[0] for c in PASS_THROUGH])
def test_options_pass_to_the_library_as_given_and_only_when_given(
    tmp_path, capsys, monkeypatch, name, argv, doc, options, required, given
):
    calls = []
    real = getattr(traceprod, name)

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    # the handler calls the library where it is defined
    monkeypatch.setattr(sys.modules[real.__module__], name, spy)
    argv = [_document(tmp_path, *doc) if a == "DOC" else a for a in argv]
    assert run(argv) == 0
    assert run(argv + options) == 0
    capsys.readouterr()
    assert calls == [required, {**required, **given}]


def test_check_samples_the_space_it_is_given(tmp_path, capsys):
    path = _document(tmp_path, "herm_odd", 3, 3)
    code, report = _run(capsys, ["check", "--maps", path, "--space", "PosDef", "--mode", "randomized", "--trials", "64"])
    assert code == 0 and report["pass"] and report["mode"] == "randomized"
    for obj in report["worst_tuple"]:
        A = decode_matrix(obj)
        assert np.allclose(A, A.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(A)[0] > 0


def test_check_refuses_a_space_of_another_span(tmp_path, capsys):
    path = _document(tmp_path, "herm_odd", 3, 3)
    code, err = _run(capsys, ["check", "--maps", path, "--space", "Diagonal"])
    assert code == 2
    assert err["error"]["message"] == "sample_space must span the same space as every map's domain"


def test_dualize_index_out_of_range_exits_two(tmp_path, capsys):
    path = _document(tmp_path, "pn_pair", 2, 2)
    code, err = _run(capsys, ["dualize", "--maps", path, "--index", "7"])
    assert code == 2
    assert err["error"]["code"] == "NotApplicableError"
    assert "index 7 is out of range" in err["error"]["message"]


def test_weighted_exponents_that_are_not_numbers_are_a_usage_error(tmp_path, capsys):
    path = _document(tmp_path, "pn_chain", 3, 2)
    with pytest.raises(SystemExit) as exc:
        run(["weighted", "--maps", path, "--alpha", "1,x", "--beta", "1,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: traceprod weighted")
    assert "argument --alpha: expected comma-separated numbers, got '1,x'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("option, other", [("--alpha", "--beta"), ("--beta", "--alpha")])
def test_weighted_negative_first_exponent_takes_the_equals_spelling(tmp_path, capsys, option, other):
    # argparse reads a value that starts with "-" and is not a plain number as an option
    path = _document(tmp_path, "pn_chain", 3, 3)
    code, report = _run(capsys, ["weighted", "--maps", path, f"{option}=-1,-1,-1", f"{other}=-1,-1,-1"])
    assert code == 0 and report["pass"]
    with pytest.raises(SystemExit) as exc:
        run(["weighted", "--maps", path, option, "-1,-1,-1", f"{other}=-1,-1,-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected one argument" in captured.err


def test_a_leading_double_dash_names_no_subcommand(capsys):
    # `_command` reads the subcommand from the first argument only, since
    # argparse refuses one behind a leading `--`
    with pytest.raises(SystemExit) as exc:
        run(["--", "generate", "--family", "mn_chain", "--n", "2", "--m", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument command: invalid choice: '--'" in captured.err
