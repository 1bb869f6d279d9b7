"""One benchmarked phenopart CLI process.

    python3 bench/child.py --stamp FILE [--trace FILE] [--setup-only] -- ARGS

Runs ``phenopart ARGS`` in this process, exactly as the ``phenopart`` command
would.  When ``build_objects`` first returns, it writes ``time.monotonic()``
to the stamp file, so the parent can measure set-up time (interpreter start,
imports, config load, model build) against its own spawn time on the same
system-wide clock.  ``--setup-only`` exits there with code 0.  ``--trace``
installs the tracer and writes its spans to FILE when the command returns.
"""

from __future__ import annotations

import argparse
import sys
import time


class _SetupDone(BaseException):
    """Raised past the CLI's own ``except Exception`` boundary."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] \
        else opts.cli_args

    from phenopart import cli

    build = cli.build_objects
    stamped = False

    def stamped_build(cfg):
        nonlocal stamped
        out = build(cfg)
        if not stamped:
            stamped = True
            with open(opts.stamp, "w", encoding="utf-8") as fh:
                fh.write(repr(time.monotonic()))
            if opts.setup_only:
                raise _SetupDone
        return out

    cli.build_objects = stamped_build

    tracer = None
    if opts.trace is not None:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        return 0
    if tracer is not None:
        tracer.dump(opts.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
