"""Golden artifacts: the CLI output for fixed small configurations must stay
byte-identical.

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]

rewrites tests/golden/ from the current code: every case, or only the named
ones (so adding a case leaves the other files alone).  Rewrite an existing
file only for an intended change of the artifact format, and say so where
the change is recorded.
"""

import os
import sys

import pytest

from dops.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FAMILIES = {
    "ml": ["--family", "ml", "--d", "2", "--alpha", "1", "--beta", "-1", "--c", "1",
           "--order", "9"],
    "charlier": ["--family", "charlier", "--d", "1", "--beta", "-1", "--order", "9"],
    "laguerre": ["--family", "laguerre", "--d", "3", "--a", "1/2", "--beta-exp", "-3/2",
                 "--theta", "1/7", "--b", "1,1/3,1/5", "--order", "10"],
    "hyp": ["--family", "hyp-laguerre", "--d", "2", "--alphavec", "1/2,1/3", "--beta", "1/4",
            "--l", "2", "--order", "8"],
}

# ml with a non-integer step w = alpha - beta = 5/6, so shift and delta_w
# take their denominator path.
STEP = ["--family", "ml", "--d", "2", "--alpha", "1/2", "--beta", "-1/3", "--c", "1/5",
        "--order", "12"]

# The csv and latex renderings of every command; gen with its Q rows.
FORMAT_RUNS = {
    "ml-gen-q": ["gen", *FAMILIES["ml"], "--with-q"],
    "laguerre-verify": ["verify", *FAMILIES["laguerre"]],
    "ml-moments": ["moments", *FAMILIES["ml"]],
    "ml-report": ["report", *FAMILIES["ml"]],
}

# file name -> (argv, expected exit code); "{table}" is the ml gen artifact.
CASES = {
    **{f"{fam}-{cmd}.json": ([cmd, *argv], 0)
       for fam, argv in FAMILIES.items() for cmd in ("gen", "verify", "moments", "report")},
    **{f"ml-step-{cmd}.json": ([cmd, *STEP], 0) for cmd in ("gen", "verify", "report")},
    **{f"{stem}.{ext}": ([*argv, "--format", fmt], 0)
       for stem, argv in FORMAT_RUNS.items() for ext, fmt in (("csv", "csv"), ("tex", "latex"))},
    # hyp-laguerre has no companion sequence and no moments section.
    "hyp-report.tex": (["report", *FAMILIES["hyp"], "--format", "latex"], 0),
    "ml-verify-from-table.json": (["verify", "--from-table", "{table}"], 0),
}


def produce(name, directory) -> tuple[int, bytes]:
    table = os.path.join(directory, "table.json")
    assert main(["gen", *FAMILIES["ml"], "--out", table]) == 0
    argv, _ = CASES[name]
    out = os.path.join(directory, name)
    code = main([arg.format(table=table) for arg in argv] + ["--out", out])
    with open(out, "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_is_byte_identical(name, tmp_path, capsys):
    code, data = produce(name, str(tmp_path))
    capsys.readouterr()
    assert code == CASES[name][1]
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert data == fh.read()


if __name__ == "__main__" and sys.argv[1:2] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sys.argv[2:] or sorted(CASES):
            code, data = produce(name, tmp)
            assert code == CASES[name][1], (name, code)
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(data)
