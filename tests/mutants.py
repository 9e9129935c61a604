"""Mutation recipe for the suites and kernels of ``src/dops``.

Each mutant is one textual edit of a file under ``src/dops``, a fault of the
kind a suite exists to catch (a truth compared with itself, a range one index
short), with the test ids that must fail once it is in.  Run

    python tests/mutants.py

from any directory.  It first runs every listed test against an unmutated
copy of ``src/``, where all must pass.  Then it applies each mutant in turn to
a fresh copy of ``src/`` in a temporary directory and runs only that mutant's
tests against the copy, one pytest subprocess at a time, and prints killed or
survived.  It exits 1 when a mutant survives, when a mutant's old text does
not occur exactly once in its file, or when a run ends in anything but a pass
or failing tests (a test id that names nothing, say).  pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRUTH = "tests/test_identities.py::TestTruthSensitivity"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/dops
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("routes-gf-vacuous", "identities.py",
           "(n, rec[n], setup.gf[n], ", "(n, rec[n], rec[n], ",
           (f"{TRUTH}::test_routes_reads_the_generating_function",)),
    Mutant("sz5-truth-is-closed-form", "ml_suites.py",
           "truth = egf_exp(ratio_power_exponent(alpha, beta, n_max), ratio_power_multiplier(alpha, beta))",
           "truth = setup.closed_forms",
           (f"{TRUTH}::test_sz5_reads_the_exponent_series",)),
    Mutant("hahn-beta-shift-vacuous", "ml_suites.py",
           "Poly.const(b), Poly.const(expected.beta[n])", "Poly.const(b), Poly.const(b)",
           (f"{TRUTH}::test_hahn_reads_the_family_table",)),
    Mutant("sr5-one-index-short", "ml_suites.py",
           "for n in range(n_max):\n            rhs = lincomb(((1, q[n]), (-n * beta, q[n - 1])))",
           "for n in range(n_max - 1):\n            rhs = lincomb(((1, q[n]), (-n * beta, q[n - 1])))",
           ("tests/test_identities.py::TestRowSensitivity::"
            "test_every_suite_fails_for_every_row_in_its_range",)),
    Mutant("sr6-one-free-constant-sample", "ml_suites.py",
           "variant {variant}\")\n               for c in FREE_CONSTANT_SAMPLES]",
           "variant {variant}\")\n               for c in FREE_CONSTANT_SAMPLES[:1]]",
           ("tests/test_identities.py::TestSrBlock::test_sr6_pins_repair_for_generic_parameters",)),
    Mutant("d-orthogonality-without-top-m", "orthogonality.py",
           "for m in range((n_max - r) // (d + 1) + 1):", "for m in range((n_max - r) // (d + 1)):",
           ("tests/test_orthogonality.py::TestKernelsAgainstPolyOracles::test_moments_and_pattern",)),
    Mutant("sz4-truth-is-its-repaired-form", "ml_suites.py",
           "((n, repaired(n), truth[n], ", "((n, repaired(n), repaired(n), ",
           (f"{TRUTH}::test_ratio_power_suites_read_the_closed_forms",)),
    Mutant("lincomb-sided-checks-never-fail", "identities.py",
           "if lincomb(plus + [(-c, *factors) for c, *factors in minus]).is_zero():",
           "if True:",
           ("tests/test_cli.py::test_reduction_note_claims_only_a_checked_window",)),
    Mutant("single-index-range-not-applicable", "identities.py",
           "if witness is None and n_max < n_min:", "if witness is None and n_max <= n_min:",
           ("tests/test_cli.py::test_lemma_note_claims_only_a_checked_instance",)),
    Mutant("check-regularity-one-m-short", "orthogonality.py",
           "range(table.n_max - table.d)", "range(table.n_max - table.d - 1)",
           ("tests/test_orthogonality.py::TestRegularity::test_vanishing_product_flags_everything",)),
    Mutant("d-orthogonality-skips-last-functional", "orthogonality.py",
           "for r in range(d):\n        for m in range(", "for r in range(d - 1):\n        for m in range(",
           ("tests/test_orthogonality.py::TestKernelsAgainstPolyOracles::test_moments_and_pattern",)),
    Mutant("laguerre-structure-vacuous", "laguerre_suites.py",
           "yield n, lhs_poly * derivative(polys[n]), rhs_at(n), ",
           "yield n, lhs_poly * derivative(polys[n]), lhs_poly * derivative(polys[n]), ",
           (f"{TRUTH}::test_laguerre_structure_reads_the_parameters",)),
    Mutant("laguerre-exponent-theta-sign", "families.py",
           "(math.factorial(n) * self.theta", "(-math.factorial(n) * self.theta",
           ("tests/test_families.py::TestLaguerreDifferential",)),
    Mutant("egf-multiplier-side-sign", "series.py",
           "(-binomial(n, i) * b, out[n + 1 - i])", "(binomial(n, i) * b, out[n + 1 - i])",
           ("tests/test_series.py::TestEgfExpDifferential::test_route_exponent",)),
    Mutant("ml-bracket-sign", "families.py",
           "- p * k * (k - 1) * bs[k - 2]", "+ p * k * (k - 1) * bs[k - 2]",
           ("tests/test_families.py::TestBenchmarkConfigurations::test_ml_verify_routes_agree",)),
    # Every golden and benchmark config has a2 > d*l - 1, where each a2_falling[k] > 0.
    Mutant("hyp-lemma-sign-fold", "hyp_suites.py",
           "terms, run = [], -1 if a2_falling[k] < 0 else 1", "terms, run = [], 1",
           ("tests/test_identities.py::TestHypLincomb::test_pass_notes[a2-negative]",
            "tests/test_identities.py::TestHypLincomb::test_lemma_failure_at_negative_a2_falling_factorial")),
    Mutant("hyp-order-l-q-power", "hyp_suites.py",
           "math.perm(n, k) * q ** k * shifted[n - k]", "math.perm(n, k) * shifted[n - k]",
           ("tests/test_identities.py::TestHypLincomb::test_pass_notes[stated-window]",)),
]


def run_tests(src: str, tests: list[str]) -> subprocess.CompletedProcess:
    """One pytest run of ``tests`` against the package under ``src``: the
    ``pythonpath`` override replaces the repository's own ``src``."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def report_error(label: str, done: subprocess.CompletedProcess) -> None:
    print(f"{label}: error (pytest exit {done.returncode})")
    print("\n".join(done.stdout.splitlines()[-10:]))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        done = run_tests(copy_src(tmp), sorted({test for m in MUTANTS for test in m.tests}))
    if done.returncode != 0:
        report_error("unmutated", done)
        return 1
    killed = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            target = os.path.join(src, "dops", mutant.path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            count = text.count(mutant.old)
            if count != 1:
                print(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
            done = run_tests(src, list(mutant.tests))
        if done.returncode in (0, 1):
            print(f"{mutant.name}: {'killed' if done.returncode else 'survived'}")
        else:
            report_error(mutant.name, done)
        killed += done.returncode == 1
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
