"""What each entry point imports, checked in fresh interpreters: a bare
`import traceprod` loads no submodule, its public names load on first use,
and each CLI stage loads only the modules its subcommand runs."""
import json
import subprocess
import sys

import pytest

from traceprod import GenSpec, generate
from traceprod.jsonio import encode_generated


def _python(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str) -> list:
    """The `traceprod` modules loaded after `code` runs in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'traceprod')))"
    )
    return json.loads(_python(probe).stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert _loaded("import traceprod") == ["traceprod"]
    assert _python("import sys, traceprod; print('numpy' in sys.modules)").stdout.strip() == "False"


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    assert _loaded("from traceprod import InvalidParameterError") == ["traceprod", "traceprod.errors"]
    assert _loaded("from traceprod import SpaceTag") == ["traceprod", "traceprod.errors", "traceprod.spaces"]


def test_dir_lists_every_public_name_before_any_is_loaded():
    code = "import traceprod; print(set(traceprod.__all__) <= set(dir(traceprod)))"
    assert _python(code).stdout.strip() == "True"


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import traceprod\n"
        "try:\n    traceprod.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
        "print(hasattr(traceprod, 'jsonio'))"
    )
    assert _python(code).stdout.split("\n")[:2] == ["module 'traceprod' has no attribute 'no_such_name'", "False"]


def test_star_import_binds_every_public_name():
    code = (
        "import traceprod\n"
        "ns = {}\nexec('from traceprod import *', ns)\n"
        "missing = [n for n in traceprod.__all__ if n not in ns]\n"
        "wrong = [n for n in traceprod.__all__ if ns.get(n) is not getattr(traceprod, n)]\n"
        "print(missing, wrong, len(traceprod.__all__))"
    )
    assert _python(code).stdout.split() == ["[]", "[]", "82"]


@pytest.mark.parametrize(
    "imports",
    [
        "import traceprod.decompose\nfrom traceprod import decompose",
        "from traceprod import decompose\nimport traceprod.decompose",
        "import importlib\nimportlib.import_module('traceprod.decompose')\nfrom traceprod import decompose",
        "from traceprod.decompose import recover_conjugator\nfrom traceprod import decompose",
        "from traceprod import *",
        "import traceprod.cli\ntraceprod.cli._load('decompose')\nfrom traceprod import decompose",
    ],
    ids=["submodule-first", "name-first", "import_module", "from-submodule", "star", "cli"],
)
def test_decompose_is_the_function_in_every_import_order(imports):
    code = (
        imports + "\nimport inspect, sys, traceprod\n"
        "module = sys.modules['traceprod.decompose']\n"
        "print(inspect.isfunction(decompose), decompose is traceprod.decompose is module.decompose)"
    )
    assert _python(code).stdout.split() == ["True", "True"]


# what every stage loads: the command line and the codec with what it imports
_COMMON = ["traceprod", "traceprod.cli", "traceprod.errors", "traceprod.jsonio", "traceprod.linmaps",
           "traceprod.spaces"]

STAGES = {
    "generate": (["generate", "--family", "mn_chain", "--n", "3", "--m", "3"], ["families"]),
    "check": (["check", "--maps", "DOC"], ["extend"]),
    "dualize": (["dualize", "--maps", "DOC"], ["extend"]),
    "extend": (["extend", "--maps", "PAIR"], ["extend"]),
    "certify": (["certify", "--n", "3", "--k", "2"], ["extend"]),
    "decompose": (["decompose", "--maps", "DOC"], ["decompose", "extend"]),
    "weighted": (["weighted", "--maps", "DOC", "--alpha", "2,2,2", "--beta", "2,2,2"], ["extend", "weighted"]),
}


@pytest.mark.parametrize("command", STAGES)
def test_a_stage_imports_only_what_its_subcommand_runs_and_before_the_freeze(tmp_path, command):
    gen = generate(GenSpec(family="pn_chain", n=3, m=3))
    (tmp_path / "doc.json").write_text(json.dumps(encode_generated(gen, "pn_chain")))
    pair = encode_generated(generate(GenSpec(family="nonextendable", n=2, m=3)), "nonextendable")
    pair["maps"] = pair["maps"][:2]
    (tmp_path / "pair.json").write_text(json.dumps(pair))
    argv, own = STAGES[command]
    files = {"DOC": str(tmp_path / "doc.json"), "PAIR": str(tmp_path / "pair.json")}
    argv = [files.get(a, a) for a in argv]
    # main() runs the stage as the `traceprod` script does; the modules are
    # listed once when the collector is frozen and once at the end
    code = (
        "import gc, json, sys\n"
        "def loaded():\n    return sorted(m for m in sys.modules if m.split('.')[0] == 'traceprod')\n"
        "freeze, frozen = gc.freeze, []\n"
        "gc.freeze = lambda: frozen.append(loaded()) or freeze()\n"
        "from traceprod import cli\n"
        f"sys.argv = ['traceprod', *{argv!r}]\n"
        "try:\n    cli.main()\nexcept SystemExit as exc:\n    status = exc.code\n"
        "print(json.dumps([status, frozen, loaded()]), file=sys.stderr)"
    )
    status, frozen, loaded = json.loads(_python(code).stderr.splitlines()[-1])
    assert status == 0
    want = sorted(_COMMON + [f"traceprod.{m}" for m in own])
    assert loaded == want
    assert frozen == [want]


def test_orjson_loads_only_where_a_transfer_is_read_or_written():
    # the codec imports orjson when it first reads or writes a maps document:
    # importing the command line and the codec, and certify, leave it out
    code = (
        "import sys\n"
        "from traceprod import cli, jsonio\n"
        "before = 'orjson' in sys.modules\n"
        "sys.argv = ['traceprod', 'certify', '--n', '3', '--k', '2']\n"
        "try:\n    cli.main()\nexcept SystemExit as exc:\n    status = exc.code\n"
        "print(status, before, 'orjson' in sys.modules, file=sys.stderr)"
    )
    assert _python(code).stderr.split()[-3:] == ["0", "False", "False"]
