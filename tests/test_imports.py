"""What each import loads.

The package ``__init__`` imports no submodule, so a caller loads only the
modules it uses.  Each case starts a fresh interpreter: in this one the
test suite has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(
    f"vncalc.{p.stem}" for p in (SRC / "vncalc").glob("*.py") if not p.stem.startswith("__")
)


def loaded_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` of a fresh interpreter that has run statement."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name == "vncalc" or name.startswith("vncalc.")}


def test_the_package_imports_no_submodule():
    assert package_modules(loaded_after("import vncalc")) == {"vncalc"}


def test_the_element_kernel_loads_only_what_it_imports():
    loaded = loaded_after("import vncalc.element")
    assert package_modules(loaded) == {"vncalc", "vncalc.errors", "vncalc.words", "vncalc.element"}
    # The Kraft-sum message reduces its fraction with math.gcd.
    assert not {"fractions", "decimal"} & loaded


def test_the_cli_still_loads_every_module_it_uses():
    assert package_modules(loaded_after("import vncalc.cli")) == {"vncalc", *SUBMODULES}
