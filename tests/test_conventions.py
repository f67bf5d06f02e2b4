"""The array conventions in `traceprod.spaces`: `_dtype_of` is the one
choice between float64 and complex128, and `_hermitian_part` the one
(X + X*)/2. No other line of the package makes either, and the functions
that build arrays in a span's coordinates agree with the rule. `_numeric`
is the one matrix rule: no public function hands one of its own parameters
to numpy's array constructors instead. `_items` is the one sequence rule: no
other function reads a parameter as a sequence and catches the TypeError.
`jsonio` is the one module that imports orjson, the codec of a document's
text. A refusal quotes a value with `reprlib.repr`: no raise of a package
error or a ValueError quotes one with `!r`, which recurses once per level of
a nested list and prints all of it."""
import ast
from pathlib import Path

import numpy as np
import pytest

from traceprod import Field, SpaceKind, SpaceTag, base_field, identity_map, span_dim, transpose_map
from traceprod import errors, spaces
from traceprod.families import _MAP_BYTES, _tuple_bytes
from traceprod.linmaps import _congruence_transfer
from traceprod.spaces import _dtype_of, _hermitian_part, coords_batch, random_batch

_SRC = Path(spaces.__file__).parent
# the helper, by module, that alone may make each choice
_DTYPE_HOME = ("spaces.py", "_dtype_of")
_HERMITIAN_HOME = ("spaces.py", "_hermitian_part")
_SEQUENCE_HOME = ("spaces.py", "_items")
_ORJSON_HOME = "jsonio.py"
# the exceptions whose messages quote a refused value with reprlib
_REFUSALS = {"ValueError", *(name for name, value in vars(errors).items() if isinstance(value, type))}


def _dtype_names(node: ast.AST) -> set:
    """Which of the two dtypes `node` names, as `np.float64` or `float64`,
    or as its itemsize when `node` is the constant 8 or 16."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {"float64"} if node.value == 8 else {"complex128"} if node.value == 16 else set()
    return {
        name for sub in ast.walk(node)
        for name in [getattr(sub, "attr", None) if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)]
        if name in ("float64", "complex128")
    }


def _names_in(stmts) -> set:
    return set().union(*(_dtype_names(st) for st in stmts))


def _opposite(a: set, b: set) -> bool:
    """Whether one of two branches names one dtype and the other the other."""
    return bool(a and b and a != b and a | b == {"float64", "complex128"})


def _dtype_choices(tree: ast.AST) -> list:
    """Lines that choose between float64 and complex128: a conditional
    expression whose arms name one each, or an `if` whose body names one and
    whose else branch, or the rest of its block, the other."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and _opposite(_dtype_names(node.body), _dtype_names(node.orelse)):
            found.append(node.lineno)
        for block in (getattr(node, name, None) for name in ("body", "orelse", "finalbody")):
            if not isinstance(block, list):
                continue
            for i, st in enumerate(block):
                if isinstance(st, ast.If):
                    other = _names_in(st.orelse) | _names_in(block[i + 1:])
                    if _opposite(_names_in(st.body), other):
                        found.append(st.lineno)
    return sorted(set(found))


def _hermitian_means(tree: ast.AST) -> list:
    """Lines of (X + Y)/2 or 0.5 (X + Y) where Y is written with a conjugate
    or an adjoint."""
    def is_constant(node, value):
        return isinstance(node, ast.Constant) and node.value == value

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(node.op, ast.Div) and is_constant(node.right, 2):
            total = node.left
        elif isinstance(node.op, ast.Mult) and is_constant(node.left, 0.5):
            total = node.right
        elif isinstance(node.op, ast.Mult) and is_constant(node.right, 0.5):
            total = node.left
        else:
            continue
        if isinstance(total, ast.BinOp) and isinstance(total.op, ast.Add):
            if any(word in ast.unparse(total) for word in ("conj", "adjoint")):
                found.append(node.lineno)
    return found


def _public_functions(tree: ast.Module) -> list:
    """The module's functions, and its classes' methods, whose names do not start with an underscore."""
    def public(body, kind):
        return [node for node in body if isinstance(node, kind) and not node.name.startswith("_")]

    return public(tree.body, ast.FunctionDef) + [
        fn for cls in public(tree.body, ast.ClassDef) for fn in public(cls.body, ast.FunctionDef)
    ]


def _parameter_conversions(tree: ast.Module) -> list:
    """Lines where a public function passes one of its own parameters to
    np.asarray, np.array or np.asanyarray, not to the matrix rule."""
    found = []
    for fn in _public_functions(tree):
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array", "asanyarray")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in params
            ):
                found.append(node.lineno)
    return sorted(found)


def _catches_type_error(handler: ast.ExceptHandler) -> bool:
    """Whether an `except` clause catches TypeError: bare, or naming it or a base class of it."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("TypeError", "Exception", "BaseException") for n in names)


def _guarded_sequence_reads(tree: ast.AST) -> list:
    """Lines where a function calls list, tuple, iter or enumerate on one of
    its own parameters inside a `try` that catches TypeError: a copy of the
    sequence rule."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Try) and any(map(_catches_type_error, node.handlers))):
                continue
            for call in (sub for st in node.body for sub in ast.walk(st)):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id in ("list", "tuple", "iter", "enumerate")
                    and any(isinstance(a, ast.Name) and a.id in params for a in call.args)
                ):
                    found.append(call.lineno)
    return sorted(set(found))


def _orjson_imports(tree: ast.AST) -> list:
    """Lines that import orjson or one of its submodules, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "orjson" for name in names):
            found.append(node.lineno)
    return sorted(found)


def _outside(tree: ast.AST, lines: list, module: str, home: tuple) -> list:
    """The `lines` that do not lie in the function `home` names."""
    if module != home[0]:
        return lines
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == home[1])
    return [line for line in lines if not fn.lineno <= line <= fn.end_lineno]


def test_the_scans_find_each_way_of_writing_a_choice():
    tree = ast.parse(
        "a = np.float64 if real else np.complex128\n"
        "b = 8 if real else 16\n"
        "def f(real):\n"
        "    if real:\n"
        "        return np.ascontiguousarray(T, dtype=np.float64)\n"
        "    return np.ascontiguousarray(T, dtype=np.complex128)\n"
        "c = (X + X.conj().T) / 2\n"
        "d = 0.5 * (G + np.conjugate(np.swapaxes(G, -1, -2)))\n"
        "e = (S + _adjoint(S)) / 2.0\n"
    )
    assert _dtype_choices(tree) == [1, 2, 4]
    assert _hermitian_means(tree) == [7, 8, 9]
    # a float64 buffer read as complex128 and a symmetric part choose nothing
    tree = ast.parse(
        "flat = np.array(pairs, dtype=np.float64)\n"
        "z = flat.view(np.complex128)\n"
        "S = (G + G.T) / 2\n"
        "n = 8 if big else 4\n"
    )
    assert _dtype_choices(tree) == [] and _hermitian_means(tree) == []


def test_the_scan_finds_each_parameter_handed_to_an_array_constructor():
    tree = ast.parse(
        "def coords(space, A):\n"
        "    return np.asarray(A)\n"
        "def stack(mats, *, dtype=None):\n"
        "    return np.array(mats, dtype=dtype)\n"
        "class Map:\n"
        "    def apply(self, x):\n"
        "        return np.asanyarray(x)\n"
        "    def _read(self, x):\n"
        "        return np.asarray(x)\n"
        "def _private(A):\n"
        "    return np.asarray(A)\n"
        "def ruled(A, T):\n"
        "    B = np.asarray(T.real)\n"
        "    return _numeric(A, 'A')\n"
    )
    # a private helper, an attribute of a parameter and the rule itself are no such hand-over
    assert _parameter_conversions(tree) == [2, 4, 7]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_public_functions_read_their_matrices_by_the_rule(path):
    lines = _parameter_conversions(ast.parse(path.read_text()))
    assert lines == [], f"an array argument of {path.name} read at lines {lines}; take spaces._numeric"


def test_the_scan_finds_each_sequence_read_that_catches_its_type_error():
    tree = ast.parse(
        "def a(maps):\n"
        "    try:\n"
        "        items = iter(maps)\n"
        "    except TypeError:\n"
        "        raise ValueError\n"
        "def b(mats, name):\n"
        "    try:\n"
        "        return tuple(f(M) for i, M in enumerate(mats))\n"
        "    except (ValueError, TypeError):\n"
        "        raise\n"
        "def c(x, y):\n"
        "    try:\n"
        "        x, y = list(x), tuple(y)\n"
        "    except:\n"
        "        pass\n"
        "def d(values):\n"
        "    try:\n"
        "        values = list(values)\n"
        "    except ValueError:\n"
        "        pass\n"
        "    try:\n"
        "        return list(other)\n"
        "    except TypeError:\n"
        "        pass\n"
        "def e(pair):\n"
        "    try:\n"
        "        a, b = pair\n"
        "    except TypeError:\n"
        "        pass\n"
        "    return list(pair)\n"
    )
    # a handler that catches no TypeError, a read of no parameter, an
    # unpacking and a read outside the try are no such copy
    assert _guarded_sequence_reads(tree) == [3, 8, 13]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_sequences_are_read_by_the_rule_only(path):
    tree = ast.parse(path.read_text())
    lines = _outside(tree, _guarded_sequence_reads(tree), path.name, _SEQUENCE_HOME)
    assert lines == [], f"a sequence argument of {path.name} read at lines {lines}; take spaces._items"


def test_the_sequence_rule_is_written_in_its_helper():
    tree = ast.parse((_SRC / "spaces.py").read_text())
    assert _outside(tree, _guarded_sequence_reads(tree), "spaces.py", ("", "")) != []


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_convention_is_written_in_its_helper_only(path):
    tree = ast.parse(path.read_text())
    assert _outside(tree, _dtype_choices(tree), path.name, _DTYPE_HOME) == [], (
        f"a float64/complex128 choice in {path.name}; take spaces._dtype_of"
    )
    assert _outside(tree, _hermitian_means(tree), path.name, _HERMITIAN_HOME) == [], (
        f"an inline Hermitian part in {path.name}; take spaces._hermitian_part"
    )


def test_each_helper_makes_its_choice():
    tree = ast.parse((_SRC / "spaces.py").read_text())
    assert _outside(tree, _dtype_choices(tree), "spaces.py", ("", "")) != []
    assert _outside(tree, _hermitian_means(tree), "spaces.py", ("", "")) != []


@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", list(SpaceKind), ids=lambda k: k.value)
def test_span_arrays_take_the_dtype_of_the_base_field(kind, field):
    space = SpaceTag(kind, field, 3)
    dtype = np.dtype(_dtype_of(base_field(space)))
    assert identity_map(space).transfer.dtype == dtype
    eye = np.eye(3, dtype=np.complex128)
    assert _congruence_transfer(space, eye, eye).dtype == dtype
    assert coords_batch(space, random_batch(space, 2, 0)).dtype == dtype
    assert _tuple_bytes(1, space) == span_dim(space) ** 2 * dtype.itemsize + _MAP_BYTES
    if kind is SpaceKind.FULL:
        assert transpose_map(space).transfer.dtype == dtype


def test_the_hermitian_part_of_a_large_stack_is_c_ordered():
    # 256 KiB, where numpy sums into the conjugate's buffer
    rng = np.random.default_rng(0)
    X = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))
    H = _hermitian_part(X)
    assert H.flags.c_contiguous
    assert H.tobytes() == np.ascontiguousarray((X + X.conj().transpose(0, 2, 1)) / 2).tobytes()


def test_the_hermitian_part_is_the_mean_with_the_conjugate_transpose():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    H = _hermitian_part(X)
    assert np.array_equal(H, H.conj().transpose(0, 2, 1))
    for A, B in zip(X, H):
        assert B.tobytes() == ((A + A.conj().T) / 2).tobytes()


@pytest.mark.parametrize("kind", [SpaceKind.HERMITIAN, SpaceKind.POSDEF, SpaceKind.POSSEMIDEF])
def test_large_hermitian_samples_stay_c_ordered(kind):
    # 256 samples at n = 8 are 256 KiB, where numpy builds the Hermitian part
    # in the transposed layout; the matrix products of a check then round
    # otherwise than on the C-ordered samples of smaller draws
    S = random_batch(SpaceTag(kind, Field.COMPLEX, 8), 256, 0)
    assert S.flags.c_contiguous
    assert np.array_equal(S, S.conj().transpose(0, 2, 1))


def test_the_scan_finds_each_import_of_orjson():
    tree = ast.parse(
        "import orjson\n"
        "def f():\n"
        "    import orjson as fast\n"
        "from orjson import loads\n"
        "import json, orjson\n"
        "import orjsonx\n"
        "from . import orjson\n"
        "from json import loads\n"
    )
    # a relative import, a longer name and another codec are not orjson
    assert _orjson_imports(tree) == [1, 3, 4, 5]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_orjson_is_imported_by_the_codec_only(path):
    lines = _orjson_imports(ast.parse(path.read_text()))
    if path.name == _ORJSON_HOME:
        assert lines != []
    else:
        assert lines == [], f"{path.name} imports orjson at lines {lines}; read and write JSON text in jsonio"


def _unbounded_quotes(tree: ast.AST) -> list:
    """Lines of each raise of one of `_REFUSALS`, named bare or as an
    attribute, whose arguments hold an f-string with a `!r` conversion."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        if getattr(func, "id", getattr(func, "attr", None)) in _REFUSALS and any(
            isinstance(sub, ast.FormattedValue) and sub.conversion == ord("r") for sub in ast.walk(node.exc)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_each_unbounded_quote_in_a_refusal():
    tree = ast.parse(
        "raise InvalidParameterError(f'tol must be finite, got {tol!r}')\n"
        "raise errors.MembershipError(\n"
        "    f'{A.shape} is no member; '\n"
        "    f'got {A!r}'\n"
        ")\n"
        "raise ValueError(f'{key} must be an integer, got {value!r}') from None\n"
        "raise InvalidParameterError(f'tol must be finite, got {reprlib.repr(tol)}')\n"
        "raise AttributeError(f'module {__name__!r} has no attribute {name!r}')\n"
        "message = f'got {value!r}'\n"
        "raise InvalidParameterError(f'{what} must be a real number, got {value}')\n"
    )
    # a bounded quote, another class, an f-string outside a raise and a str() are none
    assert _unbounded_quotes(tree) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_refusals_quote_values_with_reprlib(path):
    lines = _unbounded_quotes(ast.parse(path.read_text()))
    assert lines == [], f"a refusal in {path.name} quotes a value with !r at lines {lines}; take reprlib.repr"
