"""Job kinds of the benchmark: inputs, one timed call, and the correctness gate.

Each job comes from one entry of workloads.json. `prepare` builds its inputs
during set-up, `run` is the only timed call, and `gate` checks the recorded
outcome against ground truth after the timed loop has ended. The program only
ever receives the generated inputs; ground truth comes from the generator and
from checks the benchmark makes itself.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the modules whose public functions the traced run wraps
LAYERS = ("spaces", "linmaps", "families", "extend", "decompose", "jsonio", "cli")

# transfers rebuilt from a recovered form must match the input to this share
REBUILD_RTOL = 1e-8
CLI_TIMEOUT_S = 150


class Lib:
    """The traceprod modules, looked up at call time so that traced wrappers apply.

    `traceprod.decompose` is the re-exported function, not the module, so the
    modules come from importlib.
    """

    def __init__(self):
        self.tp = importlib.import_module("traceprod")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"traceprod.{layer}"))

    def clear_caches(self) -> None:
        """Empty every lru_cache of the package, so that set-up starts cold."""
        for layer in LAYERS:
            for fn in vars(getattr(self, layer)).values():
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def source_env(root: Path) -> dict:
    """The environment for a child interpreter that imports traceprod from `root`/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Outcome:
    """What one run of a job gave: a value, the exception it raised, or a
    pipeline's exit code and output files."""

    value: object = None
    error: BaseException | None = None
    exit: int | None = None
    outputs: tuple = ()


@dataclass
class Failure:
    detail: str
    # a documented program defect, counted as failed but expected
    known: bool = False


def gen_spec(lib: Lib, spec: dict, seed: int):
    return lib.families.GenSpec(
        family=spec["family"], n=spec["n"], m=spec["m"], field=lib.spaces.Field(spec["field"]), seed=seed
    )


def perturb(lib: Lib, maps, rel: float, seed: int) -> list:
    """Copy of `maps` whose first transfer moves by `rel` in Frobenius norm."""
    rng = np.random.default_rng(seed)
    f = maps[0]
    T = f.transfer
    G = rng.standard_normal(T.shape)
    if np.iscomplexobj(T):
        G = G + 1j * rng.standard_normal(T.shape)
    moved = T + G * (rel * np.linalg.norm(T) / np.linalg.norm(G))
    return [lib.linmaps.LinMap(f.domain, f.codomain, moved), *maps[1:]]


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))))


def rebuild_error(lib: Lib, form, space, maps) -> float:
    rebuilt = lib.linmaps.from_canonical(form, space)
    return max(_rel_diff(f.transfer, g.transfer) for f, g in zip(maps, rebuilt))


def rounding_only(lib: Lib, maps, worst) -> bool:
    """Whether the residual at `worst` is within rounding of the factor norms.

    A valid tuple that fails the check although |lhs - rhs| stays below
    m * n * eps * n * prod ||f_i(A_i)||_2 is the false fail recorded in the
    ROADMAP: the check divides by max(1, |rhs|) instead of the norm product.
    """
    imgs = [lib.linmaps.apply(f, A) for f, A in zip(maps, worst)]
    lhs = np.trace(functools.reduce(np.matmul, imgs))
    rhs = np.trace(functools.reduce(np.matmul, [np.asarray(A) for A in worst]))
    n, m = imgs[0].shape[0], len(imgs)
    scale = float(np.prod([np.linalg.norm(X, 2) for X in imgs]))
    return abs(lhs - rhs) <= m * n * np.finfo(float).eps * n * scale


class Generator:
    """Generates each tuple once per set-up, since jobs share tuples."""

    def __init__(self, lib: Lib, seed: int):
        self.lib, self.seed, self._made = lib, seed, {}

    def __call__(self, spec: dict):
        key = (spec["family"], spec["field"], spec["n"], spec["m"])
        if key not in self._made:
            self._made[key] = self.lib.families.generate(gen_spec(self.lib, spec, self.seed))
        return self._made[key]


def _tuple_label(spec: dict) -> str:
    return f"{spec['family']} {spec['field']} n={spec['n']} m={spec['m']}"


class TupleJob:
    """A library call on one generated tuple, or on a perturbed copy of it."""

    op = ""

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.valid = "perturb" not in spec
        self.kind = f"{self.op} {_tuple_label(spec)}"
        self.warm_key = (self.op, spec["family"], spec["field"], spec["m"], spec.get("mode"))

    def prepare(self, gen: Generator) -> None:
        self.generated = gen(self.spec)
        maps = list(self.generated.maps)
        self.maps = maps if self.valid else perturb(gen.lib, maps, self.spec["perturb"], self.seed)

    def small(self, lib: Lib) -> list:
        """A tuple of the same family at n=3, for warming up the code path."""
        return list(lib.families.generate(gen_spec(lib, {**self.spec, "n": 3}, self.seed)).maps)


class CheckJob(TupleJob):
    op = "check"

    def __init__(self, spec: dict, seed: int):
        super().__init__(spec, seed)
        self.kind += f" {spec['mode']}/{spec['trials']}" + ("" if self.valid else " perturbed")

    def warm(self, lib: Lib) -> None:
        lib.extend.check_preservation(self.small(lib), mode=self.spec["mode"], trials=8, seed=self.seed)

    def run(self, lib: Lib) -> Outcome:
        report = lib.extend.check_preservation(
            self.maps, mode=self.spec["mode"], trials=self.spec["trials"], seed=self.seed
        )
        return Outcome(value=report)

    def gate(self, lib: Lib, out: Outcome) -> Failure | None:
        if out.error is not None:
            return Failure(f"raised {type(out.error).__name__}: {out.error}")
        report = out.value
        if not self.valid:
            return Failure("perturbed tuple passed") if report.passed else None
        if report.passed:
            return None
        detail = f"valid tuple failed, residual {report.max_residual:.3g} > tol {report.tol:.3g}"
        return Failure(detail, known=bool(rounding_only(lib, self.maps, report.worst_tuple)))


class DecomposeJob(TupleJob):
    op = "decompose"

    def __init__(self, spec: dict, seed: int):
        super().__init__(spec, seed)
        self.kind += "" if self.valid else " perturbed"

    def warm(self, lib: Lib) -> None:
        lib.decompose.decompose(self.small(lib))

    def run(self, lib: Lib) -> Outcome:
        return Outcome(value=lib.decompose.decompose(self.maps))

    def gate(self, lib: Lib, out: Outcome) -> Failure | None:
        if not self.valid:
            if isinstance(out.error, lib.tp.PreservationError):
                return None
            return Failure(f"perturbed tuple gave {type(out.error).__name__ if out.error else 'a result'}")
        if out.error is not None:
            return Failure(f"raised {type(out.error).__name__}: {out.error}")
        want = type(self.generated.form).__name__
        got = type(out.value.form).__name__
        if got != want:
            return Failure(f"recovered {got}, generated {want}")
        err = rebuild_error(lib, out.value.form, self.generated.space, self.maps)
        return None if err <= REBUILD_RTOL else Failure(f"rebuilt transfers differ by {err:.3g}")


def _cli_label(stages) -> str:
    """The argv of each stage without file and seed placeholders."""
    words = []
    for argv in stages:
        following = argv[1:] + [""]
        words.append(" ".join(a for a, b in zip(argv, following) if "{" not in a + b))
    return " | ".join(words)


class CliJob:
    """A documented pipeline: each stage is one `python -m traceprod.cli` process.

    Stage k writes its stdout to a file; `{prev}` names the previous stage's
    file and `{input}` a document written during set-up. With `inprocess` the
    same argv go through `traceprod.cli.run` with stdout redirected instead.
    """

    def __init__(self, spec: dict, seed: int, index: int, root: Path, tmp: Path):
        self.spec, self.seed, self.index = spec, seed, index
        self.root, self.tmp = root, tmp
        self.stages = [[a.replace("{seed}", str(seed)) for a in argv] for argv in spec["stages"]]
        self.kind = "cli " + _cli_label(spec["stages"])
        self.warm_key = ("cli",)
        self.inprocess = False
        self.runs = 0

    def _input_path(self) -> Path:
        return self.tmp / f"job{self.index}-input.json"

    def _stage_path(self, run: int, k: int, suffix: str = "json") -> Path:
        return self.tmp / f"job{self.index}-run{run}-stage{k}.{suffix}"

    def prepare(self, gen: Generator) -> None:
        self.truth = None
        inp = self.spec.get("input")
        if inp is not None:
            lib = gen.lib
            maps = list(gen(inp).maps)[: inp.get("keep")]
            if "perturb" in inp:
                maps = perturb(lib, maps, inp["perturb"], self.seed)
            self.input_maps = maps
            doc = {
                "space": lib.jsonio.encode_space(maps[0].domain),
                "m": len(maps),
                "maps": [lib.jsonio.encode_linmap(f) for f in maps],
            }
            with open(self._input_path(), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def warm(self, lib: Lib) -> None:
        # one cheap process loads the interpreter, the package and its bytecode
        self._call(["certify", "--n", "2", "--k", "1"], self.tmp / "warm.json", self.tmp / "warm.err", lib)

    def _call(self, argv, out: Path, err: Path, lib: Lib) -> int:
        if self.inprocess:
            with open(out, "w", encoding="utf-8") as fh, open(err, "w", encoding="utf-8") as eh:
                with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(eh):
                    try:
                        return lib.cli.run(argv)
                    except SystemExit as exc:  # argparse rejects the argv
                        return exc.code if isinstance(exc.code, int) else 2
        with open(out, "wb") as fh, open(err, "wb") as eh:
            proc = subprocess.run(
                [sys.executable, "-m", "traceprod.cli", *argv],
                stdout=fh, stderr=eh, stdin=subprocess.DEVNULL,
                cwd=self.root, env=source_env(self.root), timeout=CLI_TIMEOUT_S,
            )
        return proc.returncode

    def run(self, lib: Lib) -> Outcome:
        run, self.runs = self.runs, self.runs + 1
        outputs = []
        code = None
        for k, argv in enumerate(self.stages):
            prev = str(outputs[-1]) if outputs else ""
            argv = [a.replace("{prev}", prev).replace("{input}", str(self._input_path())) for a in argv]
            out = self._stage_path(run, k)
            code = self._call(argv, out, self._stage_path(run, k, "err"), lib)
            outputs.append(out)
            if code != 0:
                break
        return Outcome(exit=code, outputs=tuple(outputs))

    def io_bytes(self, out: Outcome) -> tuple[int, int]:
        """JSON bytes read from files and written to stdout by one run."""
        written = sum(p.stat().st_size for p in out.outputs)
        read = sum(p.stat().st_size for p in out.outputs[:-1])
        if "input" in self.spec:
            read += self._input_path().stat().st_size
        return read, written

    def _generated(self, lib: Lib):
        """Ground truth: the tuple the first stage's `generate` argv names."""
        if self.truth is None:
            argv = self.stages[0]
            opt = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
            spec = {
                "family": opt["family"], "field": opt.get("field", "complex"),
                "n": int(opt["n"]), "m": int(opt["m"]),
            }
            self.truth = lib.families.generate(gen_spec(lib, spec, int(opt["seed"])))
        return self.truth

    def gate(self, lib: Lib, out: Outcome) -> Failure | None:
        if out.error is not None:
            return Failure(f"raised {type(out.error).__name__}: {out.error}")
        want = self.spec["exit"]
        if out.exit != want or len(out.outputs) != len(self.stages):
            return Failure(f"exit code {out.exit} at stage {len(out.outputs)}, expected {want}")
        try:
            with open(out.outputs[-1], encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return Failure(f"unreadable output: {exc}")
        return getattr(self, "_gate_" + self.spec["expect"].replace("-", "_"))(lib, doc)

    def _gate_check_pass(self, lib, doc):
        return None if doc.get("pass") is True else Failure("check did not pass")

    def _gate_check_fail(self, lib, doc):
        return None if doc.get("pass") is False else Failure("check of a perturbed tuple did not fail")

    def _gate_weighted(self, lib, doc):
        ok = doc.get("pass") is (self.spec["exit"] == 0)
        return None if ok else Failure(f"weighted report says pass={doc.get('pass')}")

    def _gate_certify(self, lib, doc):
        return None if doc.get("certifies_impossibility") is True else Failure("no certificate")

    def _gate_decompose(self, lib, doc):
        gen = self._generated(lib)
        want = type(gen.form).__name__
        if doc["form"]["form"] != want:
            return Failure(f"recovered {doc['form']['form']}, generated {want}")
        err = rebuild_error(lib, lib.jsonio.decode_form(doc["form"]), gen.space, gen.maps)
        return None if err <= REBUILD_RTOL else Failure(f"rebuilt transfers differ by {err:.3g}")

    def _gate_dualize(self, lib, doc):
        f, psi = lib.jsonio.decode_maps_document(doc)[0]
        if _rel_diff(self._generated(lib).maps[0].transfer, f.transfer) > REBUILD_RTOL:
            return Failure("dualize changed the input map")
        report = lib.extend.check_preservation([f, psi])
        return None if report.passed else Failure(f"dual pair fails, residual {report.max_residual:.3g}")

    def _gate_extend(self, lib, doc):
        psi = lib.jsonio.decode_maps_document(doc)[0]
        k = psi[0].domain.n
        for phi, ext in zip(self.input_maps, psi):
            basis = np.asarray(lib.spaces.space_basis(phi.domain).elements)
            n = basis.shape[-1]
            padded = np.zeros((len(basis), k, k), dtype=np.complex128)
            padded[:, :n, :n] = basis
            err = _rel_diff(lib.linmaps.image_stack(phi), lib.linmaps.apply_batch(ext, padded))
            if err > REBUILD_RTOL:
                return Failure(f"extension differs from the input on the corner by {err:.3g}")
        report = lib.extend.check_preservation(psi)
        return None if report.passed else Failure(f"extended pair fails on M_{k}, residual {report.max_residual:.3g}")


def make_jobs(specs, seed: int, root: Path, tmp: Path) -> list:
    jobs = []
    for i, spec in enumerate(specs):
        if spec["op"] == "check":
            jobs.append(CheckJob(spec, seed))
        elif spec["op"] == "decompose":
            jobs.append(DecomposeJob(spec, seed))
        else:
            jobs.append(CliJob(spec, seed, i, root, tmp))
    return jobs
