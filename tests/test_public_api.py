"""Public API surface tests: the names README and the docs promise."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", [
    "repro.nn", "repro.models", "repro.data", "repro.fl",
    "repro.privacy", "repro.privacy.attacks", "repro.privacy.defenses",
    "repro.core", "repro.analysis", "repro.bench", "repro.cli",
])
def test_subpackage_imports_and_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart_names_exist():
    from repro import (  # noqa: F401 — existence is the test
        DINAR,
        DINARMiddleware,
        FederatedSimulation,
        FLConfig,
        LossThresholdAttack,
        ShadowAttack,
        dinar_initialization,
        load_dataset,
        make_defense,
        quick_experiment,
        run_experiment,
        split_for_membership,
    )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_import_loads_only_numpy_beyond_stdlib():
    """``import repro, repro.cli`` pulls in no third-party module but
    numpy: every ``repro run`` pays for what the package imports before
    any work starts."""
    import repro

    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}"
        " - {m.split('.')[0] for m in before})))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert loaded - sys.stdlib_module_names == {"numpy", "repro"}
