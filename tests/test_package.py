"""The package namespace is lazy: `import codecensus` loads no submodule,
and each public name loads its home module the first time it is read.
Each test runs in a fresh `python -S` (no site .pth file may load a
module first), since this test process has long loaded every submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

# each public name of the package and the submodule that defines it
HOMES = {
    "CensusRow": "burnside", "correction_report": "burnside", "count_codes": "burnside",
    "count_codes_by_dim": "burnside",
    "CycleType": "cyclestruct", "class_size": "cyclestruct",
    "primary_components": "cyclestruct",
    "gauss_binomial": "qarith", "gauss_total": "qarith", "lemma1_tail_product": "qarith",
    "scaled_u": "qarith",
    "lattice_dim_poly": "submodcount", "lattice_size": "submodcount",
}

LOADED = "sorted(m for m in sys.modules if m.startswith('codecensus.'))"


def _fresh(script: str):
    """The value a fresh `python -S` prints as its last line after running
    `import sys, codecensus` and then `script`."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-S", "-c", f"import sys, codecensus\n{script}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _fresh(f"print({LOADED})") == []


def test_all_names_the_public_names():
    assert _fresh("print(codecensus.__all__)") == sorted(HOMES)


def test_each_name_is_the_object_of_its_home_module():
    script = (f"from importlib import import_module\n"
              f"homes = {HOMES!r}\n"
              f"print([name for name, home in homes.items() if getattr(codecensus, name) is not\n"
              f"       getattr(import_module('codecensus.' + home), name)])")
    assert _fresh(script) == []


def test_star_import_binds_the_same_objects():
    script = ("from codecensus import *\n"
              "print([name for name in codecensus.__all__\n"
              "       if globals()[name] is not getattr(codecensus, name)])")
    assert _fresh(script) == []


def test_a_name_loads_only_its_home_module_and_what_that_imports():
    assert _fresh(f"codecensus.lattice_dim_poly\nprint({LOADED})") == [
        "codecensus.cyclestruct", "codecensus.qarith", "codecensus.submodcount"]


def test_unknown_name_raises_attribute_error():
    script = ("try:\n"
              "    codecensus.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(repr(str(exc)))")
    assert _fresh(script) == "module 'codecensus' has no attribute 'no_such_name'"


def test_from_import_of_a_submodule_yields_the_submodule():
    script = ("from codecensus import burnside\n"
              "print(burnside is sys.modules['codecensus.burnside'])")
    assert _fresh(script) is True


def test_dir_lists_every_public_name_before_any_is_loaded():
    script = "print([name for name in codecensus.__all__ if name not in dir(codecensus)])"
    assert _fresh(script) == []
