"""Public API surface tests: the names README and the docs promise."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import run_fresh


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


def _loaded_after(statements: str) -> list[str]:
    """``repro`` modules loaded by running ``statements`` in a fresh
    interpreter."""
    return json.loads(run_fresh(
        statements + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))\n"))


#: Modules no benchmark workload runs code from; importing a cell's
#: entry points must not compile them.
UNUSED_BY_WORKLOADS = [
    "repro.analysis",
    "repro.analysis.divergence",
    "repro.analysis.leakage_over_time",
    "repro.analysis.loss_distribution",
    "repro.bench.reporting",
    "repro.core.consensus",
    "repro.core.middleware",
    "repro.core.sensitivity",
    "repro.models.resnet",
    "repro.privacy.attacks.calibrated",
    "repro.privacy.attacks.gradient",
    "repro.privacy.attacks.inversion",
    "repro.privacy.attacks.roc",
    "repro.privacy.defenses.cdp",
    "repro.privacy.defenses.compression",
    "repro.privacy.defenses.ladp",
    "repro.privacy.defenses.secure_aggregation",
    "repro.privacy.defenses.wdp",
]


def test_benchmark_cell_imports_stay_within_budget():
    """The imports ``benchmarks/e2e/cell.py`` times as set-up load only
    the modules a run uses."""
    loaded = _loaded_after(
        "from repro.bench.harness import (\n"
        "    DINAR_LR, build_attack, default_config, make_model_factory)\n"
        "from repro.data import load_dataset, split_for_membership\n"
        "from repro.fl import FederatedSimulation, FLConfig\n"
        "from repro.privacy.attacks.metrics import (\n"
        "    global_model_auc, local_models_auc)\n"
        "from repro.privacy.defenses.make import make_defense_for_config\n")
    assert not set(UNUSED_BY_WORKLOADS) & set(loaded)
    assert len(loaded) <= 40, loaded


def test_import_repro_loads_only_the_lazy_helper():
    loaded = _loaded_after("import repro")
    assert loaded == ["repro", "repro._lazy"]
