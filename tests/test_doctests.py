"""The package's modules: their docstring examples run and print what they
claim, and importing them loads no test-only dependency."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import gaussmin

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaussmin.__path__, "gaussmin."))


@pytest.mark.parametrize("name", ["gaussmin"] + MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_modules_import_without_scipy():
    # scipy serves the test oracles only, so it is a test dependency
    src = os.path.dirname(os.path.dirname(gaussmin.__file__))
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print('scipy' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, "gaussmin", *MODULES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert res.stdout.strip() == "False"


PUBLIC = {
    "AssumptionError", "AssumptionReport", "BrownianMotion", "ConfigError",
    "DegenerateKernelError", "DiscreteMeasure", "DiscretizedProblem", "DomainError",
    "EmptyMeasureError", "FactorizationError", "FractionalBM", "FractionalGaussianNoise",
    "GaussminError", "Grid", "GridError", "IncrementOf", "IntervalError", "Kernel",
    "LdpEstimate", "OptimalityReport", "PinnedOriginError", "RunConfig",
    "SingularityError", "SolverResult", "StationarityError", "Tabulated", "__version__",
    "applicable_audits", "audit_converse", "audit_first_case", "audit_increment_monotone",
    "audit_nonneg_increments", "audit_second_case", "build_kernel", "c_star",
    "check_optimality", "closed_form", "decomposition_residual", "dirac", "discretize",
    "energy", "extract_measure", "factorize", "ldp_curve", "load_config", "load_measure",
    "potential", "rate", "save_measure", "solve", "three_point", "two_point",
}


def test_public_names():
    assert len(gaussmin.__all__) == len(PUBLIC) == 52
    assert set(gaussmin.__all__) == PUBLIC
    namespace = {}
    exec("from gaussmin import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    # the function, not the module, as the package has always exported it
    assert callable(gaussmin.energy)
