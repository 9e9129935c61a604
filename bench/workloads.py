"""Benchmark workloads, their seeded parameter pools and the output check.

Each workload is one dops CLI job.  Timed jobs run at ``order``, where a
job takes a few seconds so that one run's median holds many of them; the
traced run is at ``trace_order``, the configuration the per-layer counts
describe.  The seed picks the
job's rational parameters from a small pool; seed 0 always picks the first
entry, which is the reference configuration.  Every entry stays inside the
family's stated domain and yields the same identity list and ranges as the
first one, so the check below is exact for every seed.

    python bench/workloads.py --record

re-runs every pool entry at the timed, traced and test orders and rewrites
expected.json from the artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_FILE = os.path.join(HERE, "expected.json")
# The benchmark's own tests run every workload at this order.
TEST_ORDER = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    family: str
    d: int
    order: int
    trace_order: int
    pool: tuple[tuple[tuple[str, str], ...], ...]

    def params(self, seed: int) -> tuple[tuple[str, str], ...]:
        if seed == 0:
            return self.pool[0]
        return self.pool[random.Random(seed).randrange(len(self.pool))]

    def argv(self, params, order: int) -> list[str]:
        out = [self.command, "--family", self.family, "--d", str(self.d)]
        for flag, value in params:
            out += [f"--{flag}", value]
        return out + ["--order", str(order)]


def params_key(params) -> str:
    return " ".join(f"{flag}={value}" for flag, value in params)


# Each pool holds the reference configuration, its mirror and a second pair.
# A mirror gives the same coefficients up to sign: for ml (alpha, beta, c) ->
# (-alpha, -beta, -c) and for laguerre a -> -a, b_i -> (-1)^i b_i, both from
# t -> -t in the generating function; for hyp-laguerre, swapping alphavec.
# The pairs keep the coefficient bit length within 2%, so runs at different
# seeds do the same amount of work.
WORKLOADS = {w.name: w for w in (
    # ROADMAP's target config: the Poly kernel (mul, shift, delta_w) and the
    # identities layer do the work, and the same objects are rebuilt many
    # times, so both the context refactor and the integer kernel show here.
    # Traced at the target order N=32 (about 15 s a job), timed at N=16.
    Workload("ml-verify", "verify", "ml", 2, 16, 32, (
        (("alpha", "1"), ("beta", "-1"), ("c", "1")),
        (("alpha", "-1"), ("beta", "1"), ("c", "-1")),
        (("alpha", "1"), ("beta", "-1"), ("c", "-1")),
        (("alpha", "-1"), ("beta", "1"), ("c", "1")),
    )),
    # The lowering operator is the derivative: no shift/delta_w and no
    # closed forms.  Time goes to the series engine, to the moments and to
    # rendering the report's tables; a Taylor-shift change must not move it.
    # Traced at N=64 (about 5 s a job), timed at N=48.
    Workload("laguerre-report", "report", "laguerre", 3, 48, 64, (
        (("a", "1/2"), ("beta-exp", "-3/2"), ("theta", "1/7"), ("b", "1,1/3,1/5")),
        (("a", "-1/2"), ("beta-exp", "-3/2"), ("theta", "1/7"), ("b", "1,-1/3,1/5")),
        (("a", "1/2"), ("beta-exp", "3/2"), ("theta", "1/7"), ("b", "-1,1/3,-1/5")),
        (("a", "-1/2"), ("beta-exp", "3/2"), ("theta", "1/7"), ("b", "-1,-1/3,-1/5")),
    )),
    # Scalar Fraction arithmetic in terminating_pfq, no Poly*Poly products,
    # no series and no recurrence fit; a Poly-kernel change must not move it.
    # Traced at N=96 (about 3.5 s a job), timed at N=80.
    Workload("hyp-verify", "verify", "hyp-laguerre", 2, 80, 96, (
        (("alphavec", "1/2,1/3"), ("beta", "1/4"), ("l", "2")),
        (("alphavec", "1/3,1/2"), ("beta", "1/4"), ("l", "2")),
        (("alphavec", "-1/2,1/3"), ("beta", "-1/4"), ("l", "2")),
        (("alphavec", "1/3,-1/2"), ("beta", "-1/4"), ("l", "2")),
    )),
)}


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def report_list(artifact: dict) -> list:
    """(identity, status, n_min, n_max) per report; notes are left out."""
    return [[r["identity"], r["status"], r["range"][0], r["range"][1]]
            for r in artifact["reports"]]


def tables_digest(artifact: dict) -> str:
    tables = {"generated": artifact["generated"], "moments": artifact["moments"]}
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(expected: dict, workload: Workload, params, order: int, returncode: int,
          artifact_path: str):
    """None when the job's output is right, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    want = expected[workload.name][str(order)]
    try:
        with open(artifact_path, encoding="utf-8") as fh:
            artifact = json.load(fh)
        got = report_list(artifact)
        digest = tables_digest(artifact) if workload.command == "report" else None
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed artifact: {exc!r}"
    if got != want["reports"]:
        diff = next((f"{g} != {w}" for g, w in zip(got, want["reports"]) if g != w),
                    f"{len(got)} reports != {len(want['reports'])}")
        return f"report list differs: {diff}"
    if digest is not None and digest != want["digests"][params_key(params)]:
        return "digest of the generated and moments tables differs"
    return None


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("DOPS_DEFAULT_ORDER", None)
    return env


def record() -> dict:
    expected = {}
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="record-") as tmp:
        out = os.path.join(tmp, "artifact.json")
        for w in WORKLOADS.values():
            expected[w.name] = {}
            for order in sorted({w.order, w.trace_order, TEST_ORDER}):
                entry = {"reports": None}
                if w.command == "report":
                    entry["digests"] = {}
                for params in w.pool:
                    argv = [sys.executable, "-m", "dops.cli", *w.argv(params, order), "--out", out]
                    subprocess.run(argv, env=job_env(), check=True, stderr=subprocess.DEVNULL)
                    with open(out, encoding="utf-8") as fh:
                        artifact = json.load(fh)
                    got = report_list(artifact)
                    if any(status != "pass" for _, status, _, _ in got):
                        raise SystemExit(f"{w.name} {params_key(params)}: {got}")
                    if entry["reports"] is None:
                        entry["reports"] = got
                    elif got != entry["reports"]:
                        raise SystemExit(f"{w.name} {params_key(params)}: reports differ "
                                         f"from the first pool entry: {got}")
                    if w.command == "report":
                        entry["digests"][params_key(params)] = tables_digest(artifact)
                    print(w.name, order, params_key(params), "ok", file=sys.stderr)
                expected[w.name][str(order)] = entry
    return expected


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    result = record()
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
