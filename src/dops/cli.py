"""Batch command line front-end.

Subcommands: ``gen`` writes polynomial tables, ``verify`` runs identity
suites, ``moments`` emits dual-functional moments with the orthogonality
pattern, and ``report`` bundles all of it into one artifact.  Output formats
are json (canonical, byte-stable, and byte for byte what ``json.dumps(...,
indent=2, sort_keys=True)`` writes), csv, and latex; rationals are always
serialized as decimal-free p/q strings and coefficient rows are dense,
ascending by power.

Exit codes: 0 when no identity check failed (warnings such as detected
non-regularity or reconciliation notes do not fail a run), 1 when some
identity check failed, 2 for invalid parameters or usage.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import os
import re
import sys
import tempfile
from typing import Optional, Sequence

from .families import Family, FamilyParamError, as_int, comma_list, read_params
from .identities import WARNING_PREFIX, FamilySetup, VerificationReport, family_suites
from .polynomials import Poly, as_rational, format_coeffs, format_rational

DEFAULT_ORDER_ENV = "DOPS_DEFAULT_ORDER"
FAMILIES = tuple(Family.table())
# The family parameters a flag can set: every parameter field but d.
PARAMETER_KEYS = tuple(dict.fromkeys(name for family in Family.table().values()
                                     for name, _, _ in family.params.FIELDS if name != "d"))
FORMATS = ("json", "csv", "latex")
# The entries a config file may hold besides its ``parameters`` object.
RUN_KEYS = ("family", "d", "order", "format", "out", "suites")


class CliError(Exception):
    """Invalid parameters or usage; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import json  # here and in _parse_table, so that a default job never loads it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    return cfg


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolve the run configuration: flags override the config file, which
    overrides defaults (order also honors the environment override).  A
    null entry is absent; an empty one is bad input."""
    cfg = _load_config(getattr(args, "config", None))
    for key in cfg:
        if key not in (*RUN_KEYS, "parameters"):
            raise CliError(f"unknown config entry {key!r}; a config file holds "
                           f"{', '.join(RUN_KEYS)} and parameters")
    if not isinstance(cfg.get("parameters", {}), dict):
        raise CliError("config entry parameters must be a JSON object")
    if not hasattr(args, "suites") and cfg.get("suites") is not None:
        raise CliError(f"{args.command} runs no suites; remove the suites entry from the config")
    merged = {key: getattr(args, key, None) if getattr(args, key, None) is not None else cfg.get(key)
              for key in RUN_KEYS}
    parameters = merged["parameters"] = dict(cfg.get("parameters", {}))
    for key in PARAMETER_KEYS:
        if getattr(args, key, None) is not None:
            parameters[key] = getattr(args, key)
    if merged["format"] is None:
        merged["format"] = "json"
    if merged["format"] not in FORMATS:
        raise CliError(f"--format must be one of {', '.join(FORMATS)}, got {merged['format']!r}")
    if merged["out"] is not None and not (isinstance(merged["out"], str) and merged["out"]):
        raise CliError(f"--out must be a non-empty path string, got {merged['out']!r}")
    suites = merged["suites"]
    if not (suites is None or isinstance(suites, str)
            or isinstance(suites, list) and all(isinstance(s, str) for s in suites)):
        raise CliError(f"--suites must be a string or a list of strings, got {suites!r}")
    if isinstance(suites, str):
        merged["suites"] = comma_list(suites, "suites")
    if merged["suites"] == []:
        raise CliError(f"--suites must name at least one suite, got {suites!r}")
    if getattr(args, "from_table", None):
        # The table's own family and parameters decide the run.
        given = [key for key in ("family", "d", "order") if merged[key] is not None]
        if given or parameters:
            raise CliError(f"--from-table takes the family and parameters from the table; "
                           f"remove {', '.join(given + sorted(parameters))}")
        return merged
    if merged["order"] is None:
        text = os.environ.get(DEFAULT_ORDER_ENV, "16")
        bad = CliError(f"{DEFAULT_ORDER_ENV} must be a non-negative integer, got {text!r}")
        try:
            order = int(text)
        except ValueError:
            raise bad from None
        if order < 0:
            raise bad
        merged["order"] = order
    if merged["d"] is None:
        merged["d"] = 1
    return merged


def build_setup(cfg: dict) -> FamilySetup:
    family = cfg.get("family")
    if family not in FAMILIES:
        raise CliError(f"--family must be one of {', '.join(FAMILIES)}")
    try:
        order = as_int(cfg["order"], "order")
        if order < 0:
            raise CliError("--order must be non-negative")
        return FamilySetup(family, order, read_params(family, cfg["d"], cfg.get("parameters", {})))
    except (FamilyParamError, TypeError) as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _poly_row(p: Poly, n: int) -> dict:
    """Row n of a table: p's coefficients as p/q strings, padded with "0"."""
    coeffs = format_coeffs(p)
    return {"n": n, "coeffs": coeffs + ["0"] * (n + 1 - len(coeffs))}


def latex_rational(value) -> str:
    """A rational as a math-mode cell: $p$ or $\\frac{p}{q}$, signed."""
    f = as_rational(value)
    if f.denominator == 1:
        return f"${f.numerator}$"
    sign = "-" if f.numerator < 0 else ""
    return f"${sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}$"


# Text-mode spellings of TeX's special characters, and of < and >, which the
# default font encoding prints as inverted punctuation.
_TEX_TEXT = str.maketrans({"\\": r"\textbackslash{}", "{": r"\{", "}": r"\}", "$": r"\$",
                           "&": r"\&", "#": r"\#", "%": r"\%", "_": r"\_",
                           "^": r"\textasciicircum{}", "~": r"\textasciitilde{}",
                           "<": r"\textless{}", ">": r"\textgreater{}"})


def _padded_rows(gen: dict, order: int, cell):
    """(label, n, cells) for every P row, then every Q row: cell(c) for each
    coefficient c, padded with cell("0") to N + 1 columns."""
    for label, key in (("P", "polys"), ("Q", "q_polys")):
        for row in gen.get(key, ()):
            coeffs = row["coeffs"]
            yield label, row["n"], [*map(cell, coeffs), *[cell("0")] * (order + 1 - len(coeffs))]


def _tabular(columns: str, header: list, rows) -> str:
    lines = [f"\\begin{{tabular}}{{{columns}}}", " & ".join(header) + " \\\\ \\hline"]
    lines += [" & ".join(map(str, row)) + " \\\\" for row in rows]
    return "\n".join(lines + ["\\end{tabular}"]) + "\n"


def _plain(s: str) -> bool:
    """Whether json writes s as it is between quotes: printable ASCII but " and \\."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _json_string(s: str) -> str:
    if _plain(s):
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii  # here, so that a plain artifact needs no json
    return encode_basestring_ascii(s)


@functools.lru_cache(maxsize=256)
def _json_key(key) -> str:
    """An object key as json writes it, with its ": "; an artifact holds
    a few dozen distinct keys, each many times."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _json_string(key) + ": "


# json's spelling of each scalar, by exact type; _json reads subclasses.  The
# containers look their items up here themselves, which saves a call per item.
_SCALARS = {str: _json_string, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _json(value, indent: str) -> str:
    """value as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    with indent the newline and spaces that open value's own line.  value
    holds dicts with str keys, lists, tuples, strs, ints, bools and None;
    anything else, a float included, raises TypeError."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            plain = _plain("".join(value))
        except TypeError:  # an item is not a str
            plain = False
        if plain:  # a coefficient row: every item a plain str
            return "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + indent + "]"
        items = [_SCALARS[type(v)](v) if type(v) in _SCALARS else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_key(k) + (_SCALARS[type(v)](v) if type(v) in _SCALARS else _json(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(command: str, fmt: str, artifact: dict, order: int) -> str:
    """The artifact as text.  json is the canonical artifact.  csv holds the
    P/Q rows (gen), the reports (verify, report) or the moments and then the
    pattern checks (moments); latex holds one tabular per table, and report
    gives its gen, reports and moments tables in turn, with every formula in
    math mode and every text cell escaped."""
    if fmt == "json":
        return _json(artifact, "\n") + "\n"
    columns = range(order + 1)
    moments = artifact if command == "moments" else artifact.get("moments")
    if fmt == "csv":
        if command == "gen":
            rows = [["kind", "n", *(f"c{k}" for k in columns)],
                    *([label, n, *cells] for label, n, cells in _padded_rows(artifact, order, str))]
        elif command == "moments":
            rows = [["r", *(f"x{k}" for k in columns)],
                    *([row["r"], *row["values"]] for row in moments["moments"]),
                    [], ["r", "m", "n", "kind", "value", "ok"],
                    *([c["r"], c["m"], c["n"], c["kind"], c["value"], c["ok"]]
                      for c in moments["pattern"]["checks"])]
        else:
            rows = [["identity", "status", "n_min", "n_max", "witness_n", "notes"],
                    *([r["identity"], r["status"], *r["range"],
                       r["witness"]["n"] if r["witness"] else "", " | ".join(r["notes"])]
                      for r in artifact["reports"])]
        import csv  # here, so that a json job never loads it
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    tables = []
    if command in ("gen", "report"):
        gen = artifact["generated"] if command == "report" else artifact
        tables.append("% polynomial table: coefficients ascending by power\n" + _tabular(
            "r|" + "r" * len(columns), ["$n$", *(f"$x^{{{k}}}$" for k in columns)],
            ([f"${label}_{{{n}}}$", *cells]
             for label, n, cells in _padded_rows(gen, order, latex_rational))))
    if command in ("verify", "report"):
        tables.append(_tabular(
            "llrrl", ["identity", "status", "$n_{\\min}$", "$n_{\\max}$", "notes"],
            ([r["identity"].translate(_TEX_TEXT), r["status"], *r["range"],
              "; ".join(r["notes"]).translate(_TEX_TEXT)]
             for r in artifact["reports"])))
    if moments:
        tables.append(_tabular(
            "r|" + "r" * len(columns),
            ["$r$", *(f"$\\langle u_r, x^{{{k}}}\\rangle$" for k in columns)],
            ([row["r"], *map(latex_rational, row["values"])] for row in moments["moments"])))
    return "\n".join(tables)


def _write_output(text: str, out: Optional[str]):
    """Write text to stdout, or to out.  A regular file or a new path is
    written atomically: a temp file beside the file out resolves to, through
    any symlinks, then replaces it, so a symlink stays a symlink.  The file
    keeps the mode of the one it replaces, and a new one gets 0666 less the
    umask, as open would give it.  An existing file that is not regular, such
    as a device or a FIFO, is written in place."""
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # What stdout's buffer still holds would fail again when the
            # interpreter flushes it at exit; send it to the null device.
            try:
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            except (OSError, ValueError):  # a stdout with no file descriptor
                pass
            raise CliError(f"cannot write <stdout>: {exc.strerror or exc}") from exc
        return
    tmp_path = None
    try:
        if os.path.exists(out) and not os.path.isfile(out):
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        target = os.path.realpath(out)
        try:
            mode = os.stat(target).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0o022)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dops-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp_path, target)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def run_suites(setup: FamilySetup, suites: Sequence[str] = ()) -> list[VerificationReport]:
    """The reports of the named suites, or of all the family's suites if none
    are named, in order and on the one setup; an unknown or repeated id is a
    usage error before any suite runs."""
    registry = family_suites(setup.kind)
    suites = suites or list(registry)
    for suite in suites:
        if suite not in registry:
            raise CliError(f"unknown suite {suite!r} for family {setup.kind!r}; "
                           f"choose from {', '.join(registry)}")
        if suites.count(suite) > 1:
            raise CliError(f"suite {suite!r} is named more than once; name each suite once")
    return [report for suite in suites for report in registry[suite](setup)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _gen_artifact(setup: FamilySetup, with_q: bool) -> dict:
    artifact = {"family": setup.kind, "params": setup.public_params(),
                "polys": [_poly_row(p, n) for n, p in enumerate(setup.polys)]}
    if with_q:
        artifact["q_polys"] = [_poly_row(p, n) for n, p in enumerate(setup.q)]
    return artifact


def _parse_table(path: str) -> FamilySetup:
    """The setup a gen artifact describes, with its rows as the table."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            artifact = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read table artifact {path}: {exc}") from exc
    try:
        family = artifact["family"]
        params = dict(artifact["params"])
        rows = [row["coeffs"] for row in artifact["polys"]]
        if not all(isinstance(row, list) for row in rows):
            raise TypeError("every coefficient row must be a list")
        table = [Poly([as_rational(c) for c in row]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"table artifact {path} is malformed: {exc!r}") from exc
    if not table:
        raise CliError(f"table artifact {path} holds no rows")
    setup = build_setup({"family": family, "d": params.pop("d", 1), "order": len(table) - 1,
                         "parameters": params})
    return FamilySetup(setup.kind, setup.order, setup.params, table)


def _moments_artifact(setup: FamilySetup) -> dict:
    if setup.d > setup.order:
        raise CliError(f"need order N >= d (d = {setup.d}, N = {setup.order})")
    table, pattern = setup.moments, setup.pattern
    return {
        "family": setup.kind,
        "params": setup.public_params(),
        "order": setup.order,
        "d": setup.d,
        "moments": [
            {"r": r, "values": [format_rational(table.moment(r, k)) for k in range(table.n_max + 1)]}
            for r in range(setup.d)
        ],
        "pattern": {
            "checks": [
                {"r": c.r, "m": c.m, "n": c.n, "kind": c.kind,
                 "value": format_rational(c.value), "ok": c.ok}
                for c in pattern.checks
            ],
            "zero_failures": len(pattern.zero_failures),
            "regularity_failures": len(pattern.regularity_failures),
        },
    }


def run_command(args: argparse.Namespace) -> int:
    """Run one subcommand: resolve the configuration, build the setup and the
    command's artifact, render and write it; returns the exit code."""
    command = args.command
    cfg = _merge_config(args)
    if getattr(args, "from_table", None):
        setup = _parse_table(args.from_table)
    else:
        setup = build_setup(cfg)
    notices = []
    if command == "gen":
        artifact, status = _gen_artifact(setup, args.with_q), 0
    elif command == "moments":
        artifact = _moments_artifact(setup)
        pattern = artifact["pattern"]
        if pattern["regularity_failures"]:
            notices.append(WARNING_PREFIX + "some regularity conditions in the pattern are zero")
        status = 1 if pattern["zero_failures"] else 0
    else:
        reports = run_suites(setup, cfg["suites"])
        statuses = [r.status for r in reports]
        artifact = {"family": setup.kind, "params": setup.public_params(), "order": setup.order,
                    "reports": [r.to_dict() for r in reports],
                    "summary": {
                        "pass": statuses.count("pass"),
                        "fail": statuses.count("fail"),
                        "not_applicable": statuses.count("not-applicable"),
                        "warnings": sum(any(note.startswith(WARNING_PREFIX) for note in r.notes)
                                        for r in reports),
                    }}
        status = 1 if "fail" in statuses else 0
        if command == "verify":
            notices = [f"{r.status.upper():15s} {r.identity}"
                       + ("  [" + "; ".join(r.notes) + "]" if r.notes else "") for r in reports]
        else:
            # Only a family with a lowering operator reports Q rows and moments.
            # The moments need N >= d; below that their suites are not-applicable.
            lowered = setup.family.lower is not None
            artifact["generated"] = _gen_artifact(setup, lowered)
            if lowered and setup.order >= setup.d:
                artifact["moments"] = _moments_artifact(setup)
    _write_output(_render(command, cfg["format"], artifact, setup.order), cfg["out"])
    for line in notices:
        print(line, file=sys.stderr)
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as a parent parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration; flags override its entries")
    common.add_argument("--family", choices=FAMILIES)
    common.add_argument("--d", type=int, help="number of orthogonality functionals")
    common.add_argument("--alpha", help="ml ratio parameter (rational p/q)")
    common.add_argument("--beta", help="ml ratio parameter / hyp quasi parameter")
    common.add_argument("--c", help="comma-separated exponent coefficients c_1..c_{d-1} (ml)")
    common.add_argument("--a", help="laguerre scale parameter")
    common.add_argument("--theta", help="laguerre shift parameter")
    common.add_argument("--beta-exp", dest="beta_exp", help="laguerre binomial exponent")
    common.add_argument("--b", help="comma-separated exponent coefficients b_0..b_{d-1} (laguerre)")
    common.add_argument("--alphavec", help="comma-separated parameters alpha_1..alpha_d (hyp-laguerre)")
    common.add_argument("--l", type=int, help="quasi-orthogonality order (hyp-laguerre)")
    common.add_argument("--order", type=int,
                        help=f"truncation order N (default 16; env {DEFAULT_ORDER_ENV} overrides)")
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--out", help="output path (a regular file is written atomically); "
                                      "stdout when omitted")
    return common


# Lets argparse accept negative rationals like -3/2 or -1/3,-2 as option
# values rather than mistaking them for option names.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dops",
        description="Construct d-orthogonal polynomial families in exact rational "
                    "arithmetic and machine-verify their identity catalog.")
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    subs = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]

    gen = subs.add_parser("gen", parents=common, help="generate a polynomial table")
    gen.add_argument("--with-q", action="store_true", dest="with_q",
                     help="also emit the companion sequence Q_0..Q_{N-1}")

    verify = subs.add_parser("verify", parents=common, help="run identity suites")
    verify.add_argument("--suites", help="comma-separated suite ids (default: all for the family)")
    verify.add_argument("--from-table", dest="from_table",
                        help="verify against a gen artifact instead of regenerating; "
                             "the family and parameters then come from the table")

    moments = subs.add_parser("moments", parents=common, help="dual-functional moments and pattern")

    report = subs.add_parser("report", parents=common, help="combined tables, moments, and suites")
    report.add_argument("--suites")

    for sub in (gen, verify, moments, report):
        sub._negative_number_matcher = _NEGATIVE_RATIONAL

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    try:
        sys.exit(main())
    finally:
        # The run is over here.  Freezing puts every object still alive out
        # of reach of the cycle collection the interpreter runs at shutdown,
        # which would otherwise walk all the module dicts, functions, classes
        # and code objects just before the process ends.
        gc.freeze()


if __name__ == "__main__":
    entry()
