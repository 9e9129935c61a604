"""Entry point for the fresh interpreters the benchmark starts besides the
plain ``python -m dops.cli`` jobs.

    python bench/child.py setup <dops argv...>
        Import dops.cli, turn the argv into a FamilySetup and exit 0 before
        any polynomial is built.
    python bench/child.py trace <dump dir> <dops argv...>
        Run the whole CLI job with every dops layer traced (see spans.py),
        write the spans to <dump dir> and exit with the job's exit code.
    python bench/child.py reference
        Multiply Fraction polynomials, the kind of work dops does, without
        importing dops: the fixed work run.py scales times by.

``src`` must be on PYTHONPATH for setup and trace, as for the plain jobs.
"""

import sys


def setup(argv) -> int:
    from dops import cli

    build_setup = cli.build_setup

    def build_then_exit(cfg):
        build_setup(cfg)
        raise SystemExit(0)

    cli.build_setup = build_then_exit
    return cli.main(argv)


def trace(directory, argv) -> int:
    from dops import cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(directory)


def reference() -> int:
    from fractions import Fraction

    factor = [Fraction(1, k + 2) for k in range(12)]
    product = [Fraction(1)]
    for _ in range(12):
        out = [Fraction(0)] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    if mode == "reference":
        sys.exit(reference())
    sys.exit(trace(rest[0], rest[1:]))
