"""Command line contract: artifact schemas, format renderings, exit codes,
config/env resolution, and the table-mode round trip."""

import contextlib
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dops import cli
from dops.cli import main, run_suites
from dops.families import INT, Family, HypParams, LagParams, MLParams, hyp_quasi
from dops.identities import FamilySetup
from dops.polynomials import Poly, format_coeffs, format_rational

import oracles


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_loads_no_dataclasses_inspect_or_csv(tmp_path):
    # Every job is a fresh interpreter, so what ``import dops.cli`` loads is
    # start-up that each job pays again.
    code = "import sys, dops.cli; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
    # A job compiles only the suites it runs: none for the import, gen and
    # moments, and only its own family's module for verify.
    assert loaded_modules() == set()
    for command in ("gen", "moments"):
        assert loaded_modules([command, *ML, "--order", "4"]) == set()
    for family in (ML, CHARLIER, LAGUERRE, HYP):
        kind = family[1]
        assert loaded_modules(["verify", *family, "--order", "4"]) == {
            f"dops.{Family.table()[kind].suites}"}
    # json is loaded only to read a config file or a table: no default job
    # loads it, in any format.
    runs = [[command, *family, "--order", "4", "--format", fmt]
            for family in (ML, LAGUERRE, HYP) for fmt in cli.FORMATS
            for command in ("gen", "verify", "moments", "report")]
    assert {m for m in loaded_modules(*runs) if m.partition(".")[0] == "json"} == set()
    config, table = tmp_path / "run.json", tmp_path / "table.json"
    config.write_text(json.dumps({"family": "ml", "d": 2, "order": 4,
                                  "parameters": {"alpha": "1", "beta": "-1", "c": "1"}}))
    assert main(["gen", *ML, "--order", "4", "--out", str(table)]) == 0
    assert "json" in loaded_modules(["gen", "--config", str(config)])
    assert "json" in loaded_modules(["verify", "--from-table", str(table)])


def loaded_modules(*runs) -> set:
    """The suite modules and json modules a fresh interpreter holds after
    ``import dops.cli`` and one successful CLI run of each argv in runs."""
    code = ("import contextlib, io, itertools, sys\n"
            "from dops import cli\n"
            "for sep, argv in itertools.groupby(sys.argv[1:], lambda arg: arg == ';'):\n"
            "    if not sep:\n"
            "        argv = list(argv)\n"
            "        with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "            assert cli.main(argv) == 0, argv\n"
            "print(*sorted(sys.modules))")
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [arg for run in runs for arg in (*run, ";")]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True)
    suites = {f"dops.{family.suites}" for family in Family.table().values()}
    return {m for m in done.stdout.split() if m in suites or m.partition(".")[0] == "json"}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_json_schema_and_values(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "4", "--format", "json"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert artifact["family"] == "ml"
        assert artifact["params"] == {"d": 1, "alpha": "1", "beta": "-1", "c": []}
        rows = {row["n"]: row["coeffs"] for row in artifact["polys"]}
        assert rows[3] == ["0", "2", "0", "1"]
        assert rows[4] == ["0", "0", "8", "0", "1"]

    def test_order_zero_single_row(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "0"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert artifact["polys"] == [{"n": 0, "coeffs": ["1"]}]

    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "1", "--order", "4"], capsys)
        assert code == 2
        assert "alpha must differ from beta" in err

    def test_with_q(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "3", "--with-q"], capsys)
        artifact = json.loads(out)
        rows = {row["n"]: row["coeffs"] for row in artifact["q_polys"]}
        assert rows[1] == ["1", "1"]
        assert rows[2] == ["2", "2", "1"]

    def test_unwritable_out_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "3", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and str(out) in err and ".dops-" not in err
        assert not out.parent.exists()

    def test_failed_stdout_write_is_bad_input(self, capsys, monkeypatch):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["gen", *ML, "--order", "3"])
        assert (code, capsys.readouterr().err) == (
            2, f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_stdout_is_reported_like_a_full_out(self, buffered):
        # Buffered, the text is still pending when the write fails, and the
        # interpreter's flush at exit must not fail on it again.
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "" if buffered else "1"}
        argv = [sys.executable, "-m", "dops.cli", "gen", *ML, "--order", "3"]
        with open("/dev/full", "w") as full:
            to_stdout = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE,
                                       text=True, timeout=120)
        to_out = subprocess.run([*argv, "--out", "/dev/full"], env=env, capture_output=True,
                                text=True, timeout=120)
        message = f"error: cannot write {{}}: {os.strerror(errno.ENOSPC)}\n"
        assert (to_out.returncode, to_out.stderr) == (2, message.format("/dev/full"))
        assert (to_stdout.returncode, to_stdout.stderr) == (2, message.format("<stdout>"))

    def test_csv_columns_are_stable(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "3", "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,c0,c1,c2,c3"
        assert all(len(line.split(",")) == 6 for line in lines[1:])
        assert lines[4] == "P,3,0,2,0,1"

    def test_latex_renders_fractions(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "2",
                                "--beta", "1/2", "--order", "3", "--format", "latex"], capsys)
        assert code == 0
        assert "\\begin{tabular}" in out
        assert "\\frac{" in out

    def test_charlier_family(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "charlier", "--d", "1",
                                "--beta", "-1", "--order", "3"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert artifact["params"]["alpha"] == "0"

    def test_charlier_rejects_nonzero_alpha(self, capsys):
        code, _, err = run_cli(["gen", "--family", "charlier", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "3"], capsys)
        assert (code, err) == (
            2, "error: the charlier family fixes alpha = 0; use --family ml for alpha != 0\n")

    def test_hyp_family(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "hyp-laguerre", "--d", "2",
                                "--alphavec", "1/2,4/3", "--order", "2"], capsys)
        artifact = json.loads(out)
        assert artifact["polys"][1]["coeffs"][0] == "1"  # value 1 at x = 0

    def test_hyp_family_has_no_companion(self, capsys):
        code, _, err = run_cli(["gen", "--family", "hyp-laguerre", "--d", "1",
                                "--alphavec", "1/2", "--order", "2", "--with-q"], capsys)
        assert (code, err) == (2, "error: the hyp-laguerre family has no lowering operator, "
                                  "so no companion sequence\n")

    def test_family_choices_keep_their_order(self, tmp_path, capsys):
        assert cli.FAMILIES == ("ml", "laguerre", "hyp-laguerre", "charlier")
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": "bogus"}))
        code, out, err = run_cli(["gen", "--config", str(path)], capsys)
        assert (code, out, err) == (
            2, "", "error: --family must be one of ml, laguerre, hyp-laguerre, charlier\n")

    def test_atomic_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "2", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["family"] == "ml"
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_out_through_a_symlink_replaces_its_target(self, tmp_path, capsys, existing):
        target = tmp_path / "tables" / "table.json"
        target.parent.mkdir()
        if existing:
            target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, out, _ = run_cli(["gen", *ML, "--order", "2", "--out", str(link)], capsys)
        assert code == 0 and out == ""
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["family"] == "ml"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_new_out_file_takes_the_umask(self, tmp_path, capsys, umask):
        out = tmp_path / "table.json"
        previous = os.umask(umask)
        try:
            code = run_cli(["gen", *ML, "--order", "2", "--out", str(out)], capsys)[0]
        finally:
            os.umask(previous)
        assert code == 0 and out.stat().st_mode & 0o7777 == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o644, 0o604], ids=oct)
    def test_replaced_out_file_keeps_its_mode(self, tmp_path, capsys, mode):
        out = tmp_path / "table.json"
        out.write_text("old")
        out.chmod(mode)
        previous = os.umask(0o077)
        try:
            code = run_cli(["gen", *ML, "--order", "2", "--out", str(out)], capsys)[0]
        finally:
            os.umask(previous)
        assert code == 0 and json.loads(out.read_text())["family"] == "ml"
        assert out.stat().st_mode & 0o7777 == mode

    def test_out_to_a_fifo_writes_into_it(self, tmp_path, capsys):
        argv = ["gen", *ML, "--order", "2"]
        expected = run_cli(argv, capsys)[1]
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        # Daemon: if the run never opens the FIFO, the blocked reader must not
        # keep the test process alive.
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, _ = run_cli([*argv, "--out", str(fifo)], capsys)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert (code, out, received) == (0, "", [expected])
        assert fifo.is_fifo()


class TestConfigResolution:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"family": "ml", "d": 2, "order": 5,
               "parameters": {"alpha": "1", "beta": "-1", "c": ["1"]}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["gen", "--config", str(path), "--order", "3"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert artifact["params"]["d"] == 2
        assert len(artifact["polys"]) == 4  # flag overrode the file's order

    def test_env_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv("DOPS_DEFAULT_ORDER", "5")
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1"], capsys)
        assert len(json.loads(out)["polys"]) == 6

    def test_default_order_is_sixteen(self, capsys, monkeypatch):
        monkeypatch.delenv("DOPS_DEFAULT_ORDER", raising=False)
        code, out, _ = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1"], capsys)
        assert len(json.loads(out)["polys"]) == 17

    @pytest.mark.parametrize("value", ["abc", "-3", ""])
    def test_malformed_env_default_order(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DOPS_DEFAULT_ORDER", value)
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1"], capsys)
        assert code == 2
        assert err.startswith("error: DOPS_DEFAULT_ORDER ") and "--order" not in err

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--order", "4"], capsys)
        assert code == 2
        assert "missing required parameter --beta" in err

    def test_negative_order_rejected(self, capsys):
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "-3"], capsys)
        assert code == 2
        assert "non-negative" in err

    def test_wrong_c_length(self, capsys):
        code, _, err = run_cli(["gen", "--family", "ml", "--d", "3", "--alpha", "1",
                                "--beta", "-1", "--c", "1", "--order", "4"], capsys)
        assert code == 2
        assert "expected 2 exponent coefficients" in err

    # Each case overrides entries of a valid hyp-laguerre config (which reads
    # d, order and l) and runs the command that reads the entry; a d, order or
    # l that is not a true int is bad input, and so is a format, out or suites
    # entry that argparse would have refused, an empty one, and a parameter
    # the family does not take.
    MALFORMED = {
        "float-alpha": ("gen", {"family": "ml", "parameters": {"alpha": 1.5, "beta": "-1"}}, "1.5"),
        "non-object-parameters": ("gen", {"parameters": 5}, "parameters"),
        **{f"{key}-{tag}": ("gen", {key: value} if key != "l" else
                            {"parameters": {"alphavec": ["1/2", "1/3"], "l": value}}, f"--{key}")
           for key in ("d", "order", "l")
           for tag, value in (("float", 2.7), ("string", "2"), ("bool", True))},
        "unknown-format": ("gen", {"format": "xml"}, "--format"),
        "non-string-out": ("gen", {"out": 5}, "--out"),
        "empty-out": ("gen", {"out": ""}, "--out"),
        "empty-format": ("gen", {"format": ""}, "--format"),
        "nested-suites": ("verify", {"suites": [["routes"]]}, "--suites"),
        "empty-suites": ("verify", {"suites": []}, "--suites"),
        "empty-suites-string": ("verify", {"suites": ""}, "--suites"),
        "foreign-parameter": ("gen", {"parameters": {"alphavec": ["1/2", "1/3"], "gamma": "2"}},
                              "'gamma'"),
        "d-in-parameters": ("gen", {"parameters": {"alphavec": ["1/2", "1/3"], "d": 2}}, "'d'"),
        # A parameter value of the wrong JSON type is named by its key.
        "float-alpha-named": ("gen", {"family": "ml", "parameters": {"alpha": 1.5, "beta": "-1"}},
                              "--alpha"),
        "number-for-list": ("gen", {"family": "ml", "parameters": {"alpha": "1", "beta": "-1",
                                                                    "c": 5}}, "--c"),
        "float-in-list": ("gen", {"parameters": {"alphavec": ["1/2", 0.5]}}, "--alphavec"),
        "bool-beta": ("gen", {"parameters": {"alphavec": ["1/2", "1/3"], "beta": True}}, "--beta"),
        # A pinned parameter is read like any other: a bool is no rational, not 1 or 0.
        **{f"bool-charlier-alpha-{value}": ("gen", {"family": "charlier", "d": 1, "parameters":
                                                    {"alpha": value, "beta": "-1"}},
                                            f"cannot interpret {value} as an exact rational")
           for value in (True, False)},
        "float-theta": ("gen", {"family": "laguerre", "parameters": {"a": "1", "theta": 0.5}},
                        "--theta"),
        "decimal-string": ("gen", {"family": "ml", "parameters": {"alpha": "1.5", "beta": "-1"}},
                           "--alpha"),
        # gen and moments run no suites, so a suites entry would be dropped.
        "suites-in-gen": ("gen", {"suites": ["quasi-order"]}, "suites"),
        "suites-in-moments": ("moments", {"suites": "quasi-order"}, "suites"),
        # Every top-level entry is a run key or parameters; any other would be dropped.
        "top-level-parameter": ("gen", {"family": "laguerre", "d": 1, "parameters": {"a": 1},
                                        "theta": "1/2"}, "'theta'"),
        "misspelt-key": ("gen", {"oder": 3}, "'oder'"),
        # A repeated suite would run twice and count twice in the summary.
        "repeated-suite": ("verify", {"suites": ["quasi-order", "quasi-order"]},
                           "suite 'quasi-order' is named more than once"),
    }

    @pytest.mark.parametrize("command, override, named", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_config_is_bad_input(self, tmp_path, capsys, command, override, named):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": "hyp-laguerre", "d": 2, "order": 4,
                                    "parameters": {"alphavec": ["1/2", "1/3"], "l": 1},
                                    **override}))
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and named in err

    # The flag forms: an empty out or suites, a parameter the family does not
    # take, and a hyp beta that is a negative integer, for every command.
    BAD_FLAGS = {
        "empty-out": (["gen", "--family", "ml", "--alpha", "1", "--beta", "-1", "--out", ""], "--out"),
        "empty-suites": (["verify", "--family", "ml", "--alpha", "1", "--beta", "-1",
                          "--suites", ""], "--suites"),
        "laguerre-alpha": (["gen", "--family", "laguerre", "--a", "1", "--alpha", "5"], "'alpha'"),
        "ml-l": (["gen", "--family", "ml", "--alpha", "1", "--beta", "-1", "--l", "3"], "'l'"),
        "zero-denominator": (["gen", "--family", "ml", "--d", "2", "--alpha", "1", "--beta", "-1",
                              "--c", "1/0"], "--c: invalid rational literal '1/0'"),
        # An empty entry in a comma-separated list would move later values up.
        "empty-c-entry": (["gen", "--family", "ml", "--d", "3", "--alpha", "1", "--beta", "-1",
                           "--c", "1,,2"], "--c has an empty entry in '1,,2'"),
        "trailing-c-entry": (["gen", "--family", "ml", "--d", "3", "--alpha", "1", "--beta", "-1",
                              "--c", "1,2,"], "--c has an empty entry"),
        "empty-alphavec-entry": (["gen", "--family", "hyp-laguerre", "--d", "2",
                                  "--alphavec", "1/2,,1/3"], "--alphavec has an empty entry"),
        "empty-suites-entry": (["verify", "--family", "ml", "--alpha", "1", "--beta", "-1",
                                "--suites", "routes,,nccd"], "--suites has an empty entry"),
        "repeated-suite": (["verify", "--family", "ml", "--d", "1", "--alpha", "1", "--beta", "-1",
                            "--suites", "routes,nccd,routes"],
                           "suite 'routes' is named more than once"),
        **{f"hyp-beta-{command}": ([command, "--family", "hyp-laguerre", "--d", "2",
                                    "--alphavec", "1/2,1/3", "--beta", "-2"], "beta = -2")
           for command in ("gen", "moments", "verify")},
        # Counts and lengths the parameter classes check.
        "zero-d": (["gen", "--family", "ml", "--d", "0", "--alpha", "1", "--beta", "-1"],
                   "d must be a positive integer"),
        "zero-l": (["gen", "--family", "hyp-laguerre", "--d", "2", "--alphavec", "1/2,1/3",
                    "--l", "0"], "--l must be a positive integer"),
        "short-b": (["gen", "--family", "laguerre", "--d", "3", "--a", "1", "--b", "1,2"],
                    "expected 3 exponent coefficients b"),
        "short-alphavec": (["gen", "--family", "hyp-laguerre", "--d", "2", "--alphavec", "1/2"],
                           "expected 2 parameters alphavec"),
    }

    # Files the run cannot read: file name and contents (None: not written),
    # the flag that names it, and the error.
    BAD_FILES = {
        "missing-config": (None, "--config", "cannot read config file"),
        "invalid-config": ("{bad", "--config", "cannot read config file"),
        "list-config": ("[1, 2]", "--config", "config file must hold a JSON object"),
        "missing-table": (None, "--from-table", "cannot read table artifact"),
        "invalid-table": ("{bad", "--from-table", "cannot read table artifact"),
        "list-table": ("[1, 2]", "--from-table", "is malformed"),
    }

    @pytest.mark.parametrize("text, flag, named", BAD_FILES.values(), ids=BAD_FILES.keys())
    def test_unreadable_file_is_bad_input(self, tmp_path, capsys, text, flag, named):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(["verify", flag, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_suites_entry_is_read_by_suite_commands(self, tmp_path, capsys, command):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": "hyp-laguerre", "d": 2, "order": 4,
                                    "parameters": {"alphavec": ["1/2", "1/3"]},
                                    "suites": ["quasi-order"]}))
        code, out, _ = run_cli([command, "--config", str(path)], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["identity"] for r in reports] == ["quasi-order"]

    @pytest.mark.parametrize("argv, named", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
    def test_bad_flag_is_bad_input(self, capsys, argv, named):
        code, out, err = run_cli([*argv, "--order", "4"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err

    def test_parameter_flags_match_the_fields(self):
        """Every parameter field but d has a flag, hyphens for underscores,
        that sets the field's name; no parameter flag lacks a field; an int
        field's flag parses to int and any other is read as text."""
        fields = {name: kind for family in Family.table().values()
                  for name, kind, _ in family.params.FIELDS if name != "d"}
        flags = {action.option_strings[0]: action
                 for action in cli._common_options()._actions
                 if action.dest not in (*cli.RUN_KEYS, "config", "help")}
        assert sorted(flags) == sorted(f"--{name.replace('_', '-')}" for name in fields)
        for flag, action in flags.items():
            assert action.dest in fields, flag
            assert action.type is (int if fields[action.dest] == INT else None), flag

    def test_build_setup_is_the_setup_hook(self, monkeypatch):
        """The benchmark times setup alone by replacing cli.build_setup with a
        stub that exits: the run must reach the setup through that name, with
        the merged configuration, before any polynomial is built."""
        calls, polys = [], []
        make = Poly._make

        def counting_make(cls, *args, **kwargs):
            polys.append(1)
            return make(*args, **kwargs)

        def build_then_exit(cfg):
            calls.append(cfg)
            raise SystemExit(0)

        monkeypatch.setattr(Poly, "_make", classmethod(counting_make))
        monkeypatch.setattr(cli, "build_setup", build_then_exit)
        with pytest.raises(SystemExit):
            main(["verify", *ML, "--order", "9"])
        assert calls == [{"family": "ml", "d": 2, "order": 9, "format": "json", "out": None,
                          "suites": None, "parameters": {"alpha": "1", "beta": "-1", "c": "1"}}]
        assert polys == []


class TestRationalLiterals:
    """A rational is "3", "-5" or "p/q" in ASCII digits with an unsigned
    denominator.  Underscores, other digits, inner whitespace and a signed
    denominator, which int() and Fraction() would take, are bad input however
    the value arrives."""

    OFF_GRAMMAR = {"underscore": "1_0", "arabic-indic-digit": "\u0663",
                   "fullwidth-digit": "\uff12", "inner-space": "1 /2",
                   "signed-denominator": "1/-2"}

    def test_the_mixed_spelling_run_is_refused(self, capsys):
        code, out, err = run_cli(["gen", "--family", "ml", "--d", "2", "--alpha", "1_0",
                                  "--beta", "\u0663", "--c", "1/-2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "invalid rational literal" in err

    @pytest.mark.parametrize("flag", ["alpha", "beta", "c"])
    @pytest.mark.parametrize("text", OFF_GRAMMAR.values(), ids=OFF_GRAMMAR.keys())
    def test_flag(self, capsys, flag, text):
        values = {"alpha": "1", "beta": "-1", "c": "1", flag: text}
        argv = ["gen", "--family", "ml", "--d", "2", "--order", "3"]
        for name, value in values.items():
            argv += [f"--{name}", value]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"--{flag}: invalid rational literal" in err

    @pytest.mark.parametrize("text", OFF_GRAMMAR.values(), ids=OFF_GRAMMAR.keys())
    def test_config_file(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"family": "ml", "d": 2, "order": 3,
                                    "parameters": {"alpha": "1", "beta": "-1", "c": [text]}}))
        code, out, err = run_cli(["gen", "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--c: invalid rational literal" in err

    @pytest.mark.parametrize("text", OFF_GRAMMAR.values(), ids=OFF_GRAMMAR.keys())
    def test_table_row(self, tmp_path, capsys, text):
        table = tmp_path / "table.json"
        assert main(["gen", *ML, "--order", "4", "--out", str(table)]) == 0
        artifact = json.loads(table.read_text())
        artifact["polys"][2]["coeffs"][0] = text
        table.write_text(json.dumps(artifact))
        capsys.readouterr()
        code, out, err = run_cli(["verify", "--from-table", str(table)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "invalid rational literal" in err

    def test_benchmark_parameters_run(self, capsys):
        argv = ["gen", "--family", "laguerre", "--d", "3", "--a", "-1/2", "--beta-exp", "-3/2",
                "--theta", "1/7", "--b", "1, -1/3,1/5", "--order", "3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["params"]["b"] == ["1", "-1/3", "1/5"]


class TestVerify:
    def test_full_suite_passes(self, capsys):
        code, out, err = run_cli(["verify", "--family", "ml", "--d", "2", "--alpha", "1",
                                  "--beta", "-1", "--c", "1", "--order", "9"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert artifact["summary"]["fail"] == 0
        assert artifact["summary"]["pass"] >= 10
        assert "PASS" in err

    def test_regularity_warning_keeps_exit_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "8", "--suites", "regularity"], capsys)
        assert code == 0
        artifact = json.loads(out)
        (report,) = artifact["reports"]
        assert report["status"] == "pass"
        assert any(note.startswith("warning: ") and "m = 0" in note for note in report["notes"])
        assert artifact["summary"]["warnings"] == 1

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["verify", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "6", "--suites", "nope"], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(["verify", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "1", "--order", "6"], capsys)
        assert code == 2

    def test_hyp_suites(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "hyp-laguerre", "--d", "2",
                                "--alphavec", "1/2,4/3", "--beta", "1/5", "--l", "1",
                                "--order", "8"], capsys)
        assert code == 0
        artifact = json.loads(out)
        ids = {r["identity"] for r in artifact["reports"]}
        assert ids == {"hyp-lincomb", "quasi-order"}

    def test_laguerre_suites(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "laguerre", "--d", "2", "--a", "1/2",
                                "--beta-exp", "-3/2", "--b", "1,1/3", "--order", "8"], capsys)
        assert code == 0
        artifact = json.loads(out)
        ids = {r["identity"] for r in artifact["reports"]}
        assert ids == {"routes", "laguerre-structure", "regularity", "d-orthogonality"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "6", "--suites", "nccd,sz5",
                                "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "identity,status,n_min,n_max,witness_n,notes"
        assert len(lines) == 3


ML = ["--family", "ml", "--d", "2", "--alpha", "1", "--beta", "-1", "--c", "1"]
CHARLIER = ["--family", "charlier", "--d", "2", "--beta", "-1", "--c", "1/2"]
LAGUERRE = ["--family", "laguerre", "--d", "3", "--a", "1/2", "--beta-exp", "-3/2",
            "--theta", "1/7", "--b", "1,1/3,1/5"]
LAGUERRE_THETA = ["--family", "laguerre", "--d", "3", "--a", "1", "--beta-exp", "-1/2",
                  "--theta", "1/3", "--b", "0,1/2,1/3"]
HYP = ["--family", "hyp-laguerre", "--d", "2", "--alphavec", "1/2,1/3", "--beta", "1/4",
       "--l", "2"]
# Every suite that reads P_n, by family.  sz5 checks the ratio power alone;
# sr4 (in sr-block) is the discrete product rule with Q_n = delta_w P_{n+1}/(n+1),
# which holds for any table.
TABLE_SUITES = (
    [(ML, suite) for suite in ("routes", "hahn", "nccd", "sr-block", "sr2", "de1", "de2", "sz4",
                               "regularity", "d-orthogonality", "moment-recursion")]
    + [(LAGUERRE, suite) for suite in ("routes", "laguerre-structure", "regularity",
                                       "d-orthogonality")]
    + [(HYP, suite) for suite in ("hyp-lincomb", "quasi-order")]
)


@pytest.mark.parametrize("family", [ML, LAGUERRE, HYP], ids=lambda family: family[1])
def test_verify_status_lines_follow_the_reports(capsys, family):
    """verify writes f"{STATUS:15s} {identity}  [notes]" to stderr, one line
    per report in order, whatever the format."""
    argv = ["verify", *family, "--order", "9"]
    code, out, err = run_cli(argv, capsys)
    lines = []
    for r in json.loads(out)["reports"]:
        line = f"{r['status'].upper():15s} {r['identity']}"
        if r["notes"]:
            line += "  [" + "; ".join(r["notes"]) + "]"
        lines.append(line)
    assert code == 0 and err == "".join(line + "\n" for line in lines)
    for fmt in ("csv", "latex"):
        assert run_cli([*argv, "--format", fmt], capsys)[::2] == (code, err)


@pytest.mark.parametrize("family, loaded", [(HYP, False), (ML, True)], ids=["hyp", "ml"])
def test_series_is_compiled_only_by_a_generating_function_job(family, loaded):
    # families.ml_by_gf imports dops.series when it runs, and hyp-laguerre
    # has no generating-function route.
    code = ("import contextlib, io, sys\n"
            "from dops import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print('dops.series' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, "verify", *family, "--order", "4"],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == str(loaded)


# Row n gets coefficient k set to value; n = 9 is P_N of the order-9 tables.
# sr7 (in sr-block) and laguerre-structure are known to stop one index short:
# their ranges end at N-1, so they never read P_N and pass a change confined to
# it (the FOUND entry on their ranges in CHANGES.md).  Those two cases are
# strict xfails: once the ranges reach N they pass, and the mark must go.
NON_MONIC_CASES = [
    pytest.param(family, suite, n, k, value, id=f"{row}-{family[1]}-{suite}",
                 marks=[pytest.mark.xfail(strict=True, reason="sr7 and laguerre-structure stop at N-1")]
                 if n == 9 and suite in ("sr-block", "laguerre-structure") else [])
    for row, (n, k, value) in [("leading-2", (3, 3, "2")), ("extra-x4", (3, 4, "1")),
                               ("leading-2-P1", (1, 1, "2")), ("leading-2-PN", (9, 9, "2"))]
    for family, suite in TABLE_SUITES
]


class TestTableMode:
    def _gen(self, tmp_path, capsys, family=ML, order="9"):
        path = tmp_path / "table.json"
        assert main(["gen", *family, "--order", order, "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def _tamper(self, table, n, value, k=0):
        """Set coefficient k of P_n to value; k past the end appends a term."""
        artifact = json.loads(table.read_text())
        artifact["polys"][n]["coeffs"][k:k + 1] = [value]
        table.write_text(json.dumps(artifact))

    @pytest.mark.parametrize("family", [ML, CHARLIER, LAGUERRE, HYP], ids=lambda family: family[1])
    def test_round_trip_byte_identical(self, tmp_path, capsys, family):
        table = self._gen(tmp_path, capsys, family)
        in_process = tmp_path / "direct.json"
        from_table = tmp_path / "table_mode.json"
        assert main(["verify", *family, "--order", "9", "--out", str(in_process)]) == 0
        assert main(["verify", "--from-table", str(table), "--out", str(from_table)]) == 0
        capsys.readouterr()
        assert in_process.read_bytes() == from_table.read_bytes()

    def _assert_tampered_table_fails(self, tmp_path, capsys, family, suite, n, k, value):
        table = self._gen(tmp_path, capsys, family)
        self._tamper(table, n, value, k)
        code, out, _ = run_cli(["verify", "--from-table", str(table), "--suites", suite], capsys)
        assert code == 1
        reports = json.loads(out)["reports"]
        statuses = {r["identity"]: r["status"] for r in reports}
        assert statuses.pop("sr4", "pass") == "pass"
        assert set(statuses.values()) == {"fail"}
        for r in reports:
            if r["status"] == "fail":
                assert r["range"][0] <= r["witness"]["n"] <= r["range"][1], r["identity"]
        if suite == "routes":
            assert reports[0]["witness"]["n"] == n

    @pytest.mark.parametrize("family, suite", TABLE_SUITES,
                             ids=[f"{f[1]}-{s}" for f, s in TABLE_SUITES])
    def test_tampered_table_fails_suite(self, tmp_path, capsys, family, suite):
        self._assert_tampered_table_fails(tmp_path, capsys, family, suite, 3, 0, "7")

    def test_failing_quasi_order_names_the_first_row_out_of_its_window(self, tmp_path, capsys):
        # x**2 of P_5 set to 1/7 leaves P_0..P_4 and so the expansions of
        # quasi[0..4]; quasi[5] gains a coordinate on P_0, below its window
        # P_1..P_5 (d*l = 4).  The detected order is 4, which the witness
        # used to name as its n.
        table = self._gen(tmp_path, capsys, HYP, "8")
        self._tamper(table, 5, "1/7", 2)
        code, out, _ = run_cli(["verify", "--from-table", str(table), "--suites", "quasi-order"],
                               capsys)
        [report] = json.loads(out)["reports"]
        basis = [Poly(row["coeffs"]) for row in json.loads(table.read_text())["polys"]]
        quasi = [row.poly() for row in hyp_quasi(HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2), 8)]
        coords = [oracles.expand_in_basis(q, basis) for q in quasi]
        for n in range(5):
            assert not any(coords[n][:max(n - 4, 0)]) and (n < 4 or coords[n][n - 4])
        assert code == 1 and report["witness"] == {
            "n": 5, "context": "coordinates of quasi[5] below its window P_1..P_5",
            "actual": format_coeffs(Poly(coords[5][:1])), "expected": []}

    def test_table_without_rows_is_bad_input(self, tmp_path, capsys):
        table = self._gen(tmp_path, capsys)
        artifact = json.loads(table.read_text())
        artifact["polys"] = []
        table.write_text(json.dumps(artifact))
        code, out, err = run_cli(["verify", "--from-table", str(table)], capsys)
        assert (code, out, err) == (2, "", f"error: table artifact {table} holds no rows\n")

    def test_table_d_is_read_as_the_artifact_holds_it(self, tmp_path, capsys):
        """A table without d is at d = 1; a null d is bad input, not absent
        as a null config entry is."""
        table = self._gen(tmp_path, capsys, ["--family", "ml", "--d", "1", "--alpha", "1",
                                             "--beta", "-1"])
        artifact = json.loads(table.read_text())
        del artifact["params"]["d"]
        table.write_text(json.dumps(artifact))
        code, out, _ = run_cli(["verify", "--from-table", str(table), "--suites", "routes"], capsys)
        assert (code, json.loads(out)["params"]["d"]) == (0, 1)
        artifact["params"]["d"] = None
        table.write_text(json.dumps(artifact))
        code, out, err = run_cli(["verify", "--from-table", str(table), "--suites", "routes"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --d ")

    def test_failing_status_line(self, tmp_path, capsys):
        table = self._gen(tmp_path, capsys)
        self._tamper(table, 3, "7")
        code, _, err = run_cli(["verify", "--from-table", str(table), "--suites", "nccd"], capsys)
        assert (code, err) == (1, f"{'FAIL':15s} nccd\n")

    @pytest.mark.parametrize("family, order, suite, identity, n, context", [
        (ML, "9", "sr-block", "sr6", 4, "(x - 0)Q_n, variant repaired"),
        (LAGUERRE_THETA, "10", "laguerre-structure", "laguerre-structure", 5, "structure relation"),
    ], ids=["ml-sr6", "laguerre-structure"])
    def test_both_forms_fail_reports_the_repaired_witness(self, tmp_path, capsys, family, order,
                                                         suite, identity, n, context):
        """The stated form fails on every generic table; when the repaired form
        fails too, the witness is the repaired one, next to the changed row."""
        table = self._gen(tmp_path, capsys, family, order)
        self._tamper(table, 5, "12345", k=1)
        code, out, _ = run_cli(["verify", "--from-table", str(table), "--suites", suite], capsys)
        assert code == 1
        report = next(r for r in json.loads(out)["reports"] if r["identity"] == identity)
        assert (report["witness"]["n"], report["witness"]["context"]) == (n, context)
        [note] = report["notes"]
        assert note.startswith("stated form fails too (first witness at n = 1")

    @pytest.mark.parametrize("family, suite, n, k, value", NON_MONIC_CASES)
    def test_non_monic_row_fails_suite(self, tmp_path, capsys, family, suite, n, k, value):
        """A row that is not monic of its degree fails the suites, not the run,
        and the witness lies inside the report's range even when the row does not."""
        self._assert_tampered_table_fails(tmp_path, capsys, family, suite, n, k, value)

    def test_failed_fit_fails_the_suite_and_the_run_goes_on(self, tmp_path, capsys):
        table = self._gen(tmp_path, capsys)
        self._tamper(table, 5, "12345")
        code, out, _ = run_cli(["verify", "--from-table", str(table)], capsys)
        assert code == 1
        reports = {r["identity"]: r for r in json.loads(out)["reports"]}
        witness = reports["hahn"]["witness"]
        assert witness["n"] == 4
        assert "no bandwidth-4 recurrence: step 4" in witness["context"]
        for identity in ("sr2", "de1:k=1", "de1:k=2", "de2", "regularity"):
            assert reports[identity]["status"] == "fail"
        assert reports["sz5"]["status"] == "pass"

    def test_companion_replay_witness(self, tmp_path, capsys):
        """Changing the x coefficient of P_5 changes Q_4, so the companion
        replay fails before any table is fitted."""
        table = self._gen(tmp_path, capsys)
        self._tamper(table, 5, "12345", k=1)
        code, out, _ = run_cli(["verify", "--from-table", str(table), "--suites", "hahn"], capsys)
        assert code == 1
        [report] = json.loads(out)["reports"]
        witness = report["witness"]
        assert (witness["n"], witness["context"]) == (4, "companion band recurrence replay")
        assert witness["expected"][:3] == ["65", "80", "38"]
        assert witness["actual"][:3] == ["12621/5", "80", "38"]

    # Entries the table decides, given by flag or by --config, and the key named.
    IGNORED_INPUT = {
        "flag-family": (["--family", "laguerre"], {}, "family"),
        "flag-d": (["--d", "3"], {}, "d"),
        "flag-order": (["--order", "3"], {}, "order"),
        "flag-alpha": (["--alpha", "2"], {}, "alpha"),
        "config-family": ([], {"family": "ml"}, "family"),
        "config-d": ([], {"d": 2}, "d"),
        "config-order": ([], {"order": 9}, "order"),
        "config-beta": ([], {"parameters": {"beta": "-1"}}, "beta"),
    }

    @pytest.mark.parametrize("flags, config, named", IGNORED_INPUT.values(),
                             ids=IGNORED_INPUT.keys())
    def test_table_decided_input_is_bad_input(self, tmp_path, capsys, flags, config, named):
        table = self._gen(tmp_path, capsys)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"suites": ["routes"], **config}))
        code, out, err = run_cli(["verify", "--from-table", str(table), "--config", str(path),
                                  *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --from-table ") and err.rstrip().endswith(named)

    def test_suites_format_and_out_are_allowed(self, tmp_path, capsys):
        table = self._gen(tmp_path, capsys)
        path = tmp_path / "run.json"
        out = tmp_path / "reports.csv"
        path.write_text(json.dumps({"suites": "routes", "format": "csv", "out": str(out),
                                    "parameters": {}}))
        code, _, _ = run_cli(["verify", "--from-table", str(table), "--config", str(path)], capsys)
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("routes,pass,0,9,")

    def test_row_without_coeffs_is_bad_input(self, tmp_path, capsys):
        table = self._gen(tmp_path, capsys)
        artifact = json.loads(table.read_text())
        del artifact["polys"][2]["coeffs"]
        table.write_text(json.dumps(artifact))
        code, _, err = run_cli(["verify", "--from-table", str(table)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "malformed" in err

    @pytest.mark.parametrize("coeffs", ["11", [True, True]], ids=["string", "bools"])
    def test_coefficient_row_that_only_reads_as_one_is_bad_input(self, tmp_path, capsys, coeffs):
        """P_1 is x + 1 here, so a string read one character at a time, or
        JSON true read as 1, would give back the real row."""
        table = self._gen(tmp_path, capsys, order="6")
        artifact = json.loads(table.read_text())
        assert artifact["polys"][1]["coeffs"] == ["1", "1"]
        artifact["polys"][1]["coeffs"] = coeffs
        table.write_text(json.dumps(artifact))
        code, out, err = run_cli(["verify", "--from-table", str(table)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "malformed" in err


SMALL_ORDER_RUNS = [
    (ML, 2),
    (["--family", "ml", "--d", "3", "--alpha", "1", "--beta", "-1", "--c", "1,1/2"], 3),
    (["--family", "charlier", "--d", "1", "--beta", "-1"], 1),
    (LAGUERRE, 3),
    (HYP, 2),
]


SMALL_ORDER_CASES = {
    f"{prefix}{family[1]}-d{d}-N{order}": (command, family, order)
    for command, prefix in (("verify", ""), ("report", "report-"))
    for family, d in SMALL_ORDER_RUNS for order in range(d + 3)
}


@pytest.mark.parametrize("command, family, order", SMALL_ORDER_CASES.values(),
                         ids=SMALL_ORDER_CASES.keys())
def test_small_orders_fail_nothing(capsys, command, family, order):
    code, out, err = run_cli([command, *family, "--order", str(order)], capsys)
    assert code == 0, err
    artifact = json.loads(out)
    reports = artifact["reports"]
    assert all(r["status"] != "fail" for r in reports)
    # a pass over an empty index range is no pass
    assert all(r["status"] == "not-applicable" for r in reports if r["range"][1] < r["range"][0])
    # the moments need order N >= d
    assert ("moments" in artifact) == (command == "report" and family[1] != "hyp-laguerre"
                                       and order >= int(family[3]))


@pytest.mark.parametrize("order, note", [
    (0, "index-shift lemma needs N >= 2"),
    (1, "index-shift lemma needs N >= 2"),
    (2, "index-shift lemma verified at a generic non-integer parameter"),
])
def test_lemma_note_claims_only_a_checked_instance(capsys, order, note):
    # the lemma's index k runs over 1..min(n-1, d*l), so it has an instance
    # only from n = 2 on
    code, out, err = run_cli(["verify", *HYP, "--order", str(order), "--suites", "hyp-lincomb"],
                             capsys)
    assert code == 0, err
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "pass"
    assert report["notes"][0] == note


@pytest.mark.parametrize("order, note", [
    (0, "aligned reduction window needs N >= 1"),
    (1, "stated l-term reduction window fails (first witness at n = 1); repaired form pinned: "
        "the window is d*l terms with binomial(d*l, k) weights"),
])
def test_reduction_note_claims_only_a_checked_window(capsys, order, note):
    # at n = 0 both reduction windows hold the single term k = 0, so only
    # N >= 1 can tell the stated l-term window from the d*l-term one
    code, out, err = run_cli(["verify", *HYP, "--order", str(order), "--suites", "hyp-lincomb"],
                             capsys)
    assert code == 0, err
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "pass"
    assert report["notes"][-1] == note


@pytest.mark.parametrize("args", [
    ["--d", "2", "--alphavec", "1/2,1/3", "--beta", "-13/3", "--l", "2", "--order", "4"],
    ["--d", "1", "--alphavec", "-17/4", "--beta", "-4/3", "--l", "2", "--order", "3"],
], ids=["a2-zero", "a2-one"])
def test_lemma_parameter_stays_off_the_integers(capsys, args):
    # beta + 1/3 is an integer here, so the lemma's usual a2 = beta + d*l + 1/3
    # would be one too and its falling factorials would vanish
    code, out, err = run_cli(["verify", "--family", "hyp-laguerre", *args], capsys)
    assert code == 0, err
    reports = json.loads(out)["reports"]
    assert [r["identity"] for r in reports] == ["hyp-lincomb", "quasi-order"]
    assert all(r["status"] == "pass" for r in reports)
    assert reports[0]["notes"][0] == "index-shift lemma verified at a generic non-integer parameter"


@st.composite
def small_setups(draw):
    """Every family at d <= 4 and order 0..d+3, over degenerate parameters:
    alpha or beta zero, c zero, a < 0, theta != 0, alphavec zero."""
    kind = draw(st.sampled_from(["ml", "charlier", "laguerre", "hyp-laguerre"]))
    d = draw(st.integers(1, 4))
    order = draw(st.integers(0, d + 3))
    if kind in ("ml", "charlier"):
        ratios = [F(0), F(1), F(-1, 2)]
        alpha = F(0) if kind == "charlier" else draw(st.sampled_from(ratios))
        beta = draw(st.sampled_from([r for r in ratios if r != alpha]))
        c = draw(st.lists(st.sampled_from([F(0), F(1, 3)]), min_size=d - 1, max_size=d - 1))
        return FamilySetup(kind, order, MLParams(d, alpha, beta, c))
    if kind == "laguerre":
        params = LagParams(d, draw(st.sampled_from([1, -2])), draw(st.sampled_from([0, -1])),
                           draw(st.sampled_from([F(0), F(1, 3)])))
        return FamilySetup(kind, order, params)
    alphavec = draw(st.lists(st.sampled_from([F(0), F(1, 2)]), min_size=d, max_size=d))
    return FamilySetup(kind, order, HypParams(d, alphavec, beta=draw(st.sampled_from([F(0), F(1, 5)])),
                                              l=draw(st.sampled_from([1, 2]))))


@settings(max_examples=250, deadline=None)
@given(small_setups())
def test_small_order_sweep_fails_nothing(setup):
    reports = run_suites(setup)
    assert [r.to_dict() for r in reports if r.status == "fail"] == []


# Rationals with denominators <= 7, weighted toward negative integers and
# thirds (0 among them), where parameters meet the suites' own constants.
contract_rationals = st.one_of(
    st.integers(-6, -1).map(F),
    st.integers(-9, 9).map(lambda k: F(k, 3)),
    st.fractions(min_value=-7, max_value=7, max_denominator=7),
)


@st.composite
def cli_runs(draw):
    """Any of the four commands on any family, d <= 3 and N <= 7."""
    kind = draw(st.sampled_from(["ml", "charlier", "laguerre", "hyp-laguerre"]))
    d = draw(st.integers(1, 3))
    args = [draw(st.sampled_from(["gen", "verify", "moments", "report"])), "--family", kind,
            "--d", str(d), "--order", str(draw(st.integers(0, 7)))]

    def flag(name, count=1):
        values = (format_rational(draw(contract_rationals)) for _ in range(count))
        return [f"--{name}={','.join(values)}"] if count else []

    if kind == "ml":
        args += flag("alpha")
    if kind in ("ml", "charlier"):
        args += flag("beta") + flag("c", d - 1)
    elif kind == "laguerre":
        args += flag("a") + flag("theta") + flag("beta-exp") + flag("b", d)
    else:
        args += flag("alphavec", d) + flag("beta") + [f"--l={draw(st.integers(1, 2))}"]
    return args


@settings(max_examples=80, deadline=None)
@given(cli_runs())
def test_exit_code_contract(args):
    """0 ok, 1 identity failed, 2 bad input, for any input; verify and
    report exit 1 exactly when some report fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2), err.getvalue()
    if args[0] in ("verify", "report") and code != 2:
        reports = json.loads(out.getvalue())["reports"]
        assert (code == 1) == any(r["status"] == "fail" for r in reports), err.getvalue()


class TestMoments:
    def test_regular_pattern_all_pass(self, capsys):
        code, out, err = run_cli(["moments", "--family", "ml", "--d", "2", "--alpha", "1",
                                  "--beta", "-1", "--c", "1", "--order", "10"], capsys)
        assert (code, err) == (0, "")
        artifact = json.loads(out)
        assert artifact["pattern"]["zero_failures"] == 0
        assert artifact["pattern"]["regularity_failures"] == 0
        assert len(artifact["moments"]) == 2

    def test_needs_order_at_least_d(self, capsys):
        code, _, err = run_cli(["moments", "--family", "ml", "--d", "2", "--alpha", "1",
                                "--beta", "-1", "--c", "1", "--order", "1"], capsys)
        assert code == 2
        assert "N >= d" in err

    def test_warning_for_nonregular(self, capsys):
        for fmt in ("json", "csv", "latex"):
            code, _, err = run_cli(["moments", "--family", "ml", "--d", "1", "--alpha", "1",
                                    "--beta", "-1", "--order", "8", "--format", fmt], capsys)
            assert (code, err) == (0, "warning: some regularity conditions in the pattern are zero\n")

    def test_latex_format(self, capsys):
        code, out, _ = run_cli(["moments", "--family", "ml", "--d", "1", "--alpha", "1",
                                "--beta", "-1", "--order", "4", "--format", "latex"], capsys)
        assert code == 0
        assert "\\langle u_r" in out


class TestReport:
    def test_combined_artifact(self, capsys):
        code, out, _ = run_cli(["report", "--family", "ml", "--d", "2", "--alpha", "1",
                                "--beta", "-1", "--c", "1", "--order", "8"], capsys)
        assert code == 0
        artifact = json.loads(out)
        assert set(artifact) >= {"family", "params", "generated", "reports", "summary", "moments"}
        assert artifact["summary"]["fail"] == 0

    def test_latex_document(self, capsys):
        code, out, _ = run_cli(["report", "--family", "hyp-laguerre", "--d", "1",
                                "--alphavec", "1/2", "--beta", "1/3", "--l", "1",
                                "--order", "6", "--format", "latex"], capsys)
        assert code == 0
        assert out.count("\\begin{tabular}") >= 2

    # charlier at d = 1 writes "gamma^0" and "d >= 2" in its notes.
    @pytest.mark.parametrize("family", [ML, CHARLIER, ["--family", "charlier", "--d", "1",
                                                       "--beta", "-1"], LAGUERRE, HYP],
                             ids=["ml", "charlier", "charlier-d1", "laguerre", "hyp"])
    def test_latex_keeps_formulas_in_math_mode(self, capsys, family):
        """No TeX engine is at hand, so every cell of every table is split
        out and, outside its $...$ spans, must hold no fraction, superscript,
        unescaped subscript, angle bracket or stray dollar."""
        code, out, _ = run_cli(["report", *family, "--order", "6", "--format", "latex"], capsys)
        assert code == 0
        cells = [cell for line in out.splitlines() if not line.startswith(("\\begin", "\\end", "%"))
                 for cell in line.removesuffix(" \\\\ \\hline").removesuffix(" \\\\").split(" & ")]
        assert any(cell.startswith("$") for cell in cells)
        for cell in cells:
            text = re.sub(r"(?<!\\)\$.*?(?<!\\)\$", "", cell)
            assert not re.search(r"\\frac|\\langle|\^|(?<!\\)[_$<>]", text), cell


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# Text with every kind of character json escapes or spells as it is.
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u00e9", "\U0001d4b3", "a",
                                     " ", "/", "-", "7", "~"]))
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-(2 ** 200), max_value=2 ** 200) | JSON_TEXT)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda items: (
    st.lists(items, max_size=4) | st.lists(items, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, items, max_size=4)), max_leaves=24)


class TestJsonWriter:
    """The canonical artifact is ``json.dumps(v, indent=2, sort_keys=True)``,
    written by cli's own writer so that a job never loads json."""

    @staticmethod
    def written(value) -> str:
        return cli._render("gen", "json", value, 0)

    @pytest.mark.parametrize("name", sorted(n for n in os.listdir(GOLDEN) if n.endswith(".json")))
    def test_golden_values(self, name):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        value = json.loads(text)
        assert self.written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n" == text

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({"\U0001d4b3": ['"', "\\", "\n\x00\x7f\u00e9", -2 ** 70, 2 ** 64, True, False, None],
              "a": [[], {}, (), ("1/2", "-3", "")], "": {"k": [[1, "x"], {"\"": 0}]}})
    def test_writes_what_json_dumps_writes(self, value):
        assert self.written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [0.5, F(1, 2), {1, 2}, {"x": [1, 2.0]}, [("a", {F(1, 3)})],
                                       {"x": {2: "two"}}])
    def test_refuses_what_an_artifact_cannot_hold(self, value):
        with pytest.raises(TypeError):
            self.written(value)


class TestEntryPoint:
    """``python -m dops.cli`` runs ``entry()``, as the ``dops`` console script
    does: the same stdout, stderr and exit code as ``main()`` in-process."""

    @pytest.mark.parametrize("case, status", [("verify", 0), ("tampered-table", 1),
                                              ("bad-input", 2), ("usage", 2)])
    def test_entry_matches_main(self, tmp_path, capsys, monkeypatch, case, status):
        # Fixed, so that argparse wraps its usage text the same in both runs.
        monkeypatch.setenv("COLUMNS", "80")
        table = tmp_path / "table.json"
        argv = {
            "verify": ["verify", *ML, "--order", "9"],
            "tampered-table": ["verify", "--from-table", str(table), "--suites", "routes,nccd"],
            "bad-input": ["gen", *ML, "--beta", "1", "--order", "4"],
            "usage": ["verify", "--family", "nope"],
        }[case]
        if case == "tampered-table":
            assert main(["gen", *ML, "--order", "9", "--out", str(table)]) == 0
            artifact = json.loads(table.read_text())
            artifact["polys"][3]["coeffs"][0] = "7"
            table.write_text(json.dumps(artifact))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code == status
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-m", "dops.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, captured.out.encode(), captured.err.encode())

    def test_only_entry_freezes_the_collector(self, tmp_path):
        argv = ["gen", *ML, "--order", "2", "--out", str(tmp_path / "table.json")]
        before = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() == before
        code = ("import gc, sys\n"
                "from dops import cli\n"
                "try:\n"
                "    cli.entry()\n"
                "except SystemExit as exc:\n"
                "    print(exc.code, gc.get_freeze_count() > 0)\n")
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0 True\n"
