"""The array conventions in `traceprod.spaces`: `_dtype_of` is the one
choice between float64 and complex128, and `_hermitian_part` the one
(X + X*)/2. No other line of the package makes either, and the functions
that build arrays in a span's coordinates agree with the rule. `_numeric`
is the one matrix rule: no public function hands one of its own parameters
to numpy's array constructors instead."""
import ast
from pathlib import Path

import numpy as np
import pytest

from traceprod import Field, SpaceKind, SpaceTag, base_field, identity_map, span_dim, transpose_map
from traceprod import spaces
from traceprod.families import _MAP_BYTES, _tuple_bytes
from traceprod.linmaps import _congruence_transfer
from traceprod.spaces import _dtype_of, _hermitian_part, coords_batch, random_batch

_SRC = Path(spaces.__file__).parent
# the helper, by module, that alone may make each choice
_DTYPE_HOME = ("spaces.py", "_dtype_of")
_HERMITIAN_HOME = ("spaces.py", "_hermitian_part")


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
