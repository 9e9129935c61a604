"""Every public name a dops module declares resolves, so removing a
definition cannot leave a stale entry in ``__all__`` behind; the package
itself loads each name from its module only on first use."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import dops

MODULES = sorted(f"dops.{info.name}" for info in pkgutil.iter_modules(dops.__path__))

# Every name the package exports, by the module that defines it.
PACKAGE_EXPORTS = {
    "families": ("Family", "FamilyParamError", "HypParams", "LagParams", "MLParams",
                 "hyp_laguerre", "hyp_quasi", "laguerre_type_by_gf",
                 "laguerre_type_by_recurrence", "ml_by_gf", "ml_by_recurrence", "q_sequence",
                 "terminating_pfq"),
    "identities": ("FamilySetup", "VerificationReport", "Witness", "ratio_power_closed_form"),
    "orthogonality": ("FitError", "MomentTable", "RecurrenceTable", "check_regularity",
                      "expand_in_basis", "fit_recurrence", "moments_by_inversion",
                      "quasi_orthogonality_order", "verify_d_orthogonality"),
    "polynomials": ("Poly", "as_rational", "delta_w", "derivative", "format_rational",
                    "parse_rational", "shift"),
    "series": ("egf_exp",),
}


def test_every_module_is_listed():
    assert {"dops.cli", "dops.families", "dops.identities", "dops.orthogonality",
            "dops.polynomials", "dops.series", "dops.ml_suites", "dops.laguerre_suites",
            "dops.hyp_suites"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve_from_their_modules():
    wrong = []
    for module, names in PACKAGE_EXPORTS.items():
        for name in names:
            namespace = {}
            exec(f"from dops import {name}", namespace)
            if namespace[name] != getattr(importlib.import_module(f"dops.{module}"), name):
                wrong.append(name)
    assert wrong == []
    assert sorted(dops.__all__) == sorted(name for names in PACKAGE_EXPORTS.values()
                                          for name in names)
    with pytest.raises(ImportError):
        exec("from dops import no_such_name", {})


def test_readme_example_imports_from_the_package():
    from dops import MLParams, fit_recurrence, ml_by_gf, ml_by_recurrence

    p = MLParams(d=2, alpha=1, beta=-1, c=[F(1)])
    polys = ml_by_recurrence(p, 10)
    assert polys == ml_by_gf(p, 10)
    assert fit_recurrence(polys, p.d).regenerate() == polys


def test_package_import_loads_no_module():
    code = "import sys, dops; print(*sorted(m for m in sys.modules if m.startswith('dops.')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


SUITE_SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(dops.__file__), "*_suites.py")))


@pytest.mark.parametrize("path", SUITE_SOURCES, ids=os.path.basename)
def test_suite_modules_hand_their_checks_to_the_one_evaluator(path):
    """identities._report runs every check, turns a failed fit into a report
    and decides which notes a report carries, so a suite module imports
    neither the evaluator's parts nor the fit error, and reads no report's
    status or notes; the module is parsed, not imported."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported & {"first_mismatch", "FitError", "Witness"} == set()
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"status", "notes"} == set()


# Methods no code in src/dops reads, each with the reason it stays.
UNREAD_METHODS = {
    "coeffs": "Poly.coeffs, the Fraction view of a Poly, is read by bench/spans.py and the tests",
}


def test_every_definition_has_a_caller_in_the_package():
    """Each function, class and method defined in ``src/dops`` is named
    somewhere in ``src/dops`` other than its own definition, so no helper
    stays behind that only the tests call.  A function or class counts as
    named as a name or an attribute; a method or property only as an
    attribute read, since a local of the same name calls nothing.  Dunder
    methods are called by the interpreter and are left out; a name listed
    only in ``__all__`` or a lazy-export table is a string, not a caller."""
    defined, names, attributes = set(), set(), set()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(dops.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((node.name, os.path.basename(path), id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    uncalled = sorted((name, path) for name, path, method in defined
                      if name not in attributes and (method or name not in names))
    assert uncalled == [(name, "polynomials.py") for name in UNREAD_METHODS]
