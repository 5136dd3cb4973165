"""Run one CLI job in a fresh interpreter with the benchmark's span wrappers.

    python perfbench/cli_traced.py DUMP -- <trident47 cli arguments>

Imports ``trident47.cli``, installs the same wrappers the in-process
workloads use, calls ``trident47.cli.main(argv)`` inside one root span,
writes the spans and the compile-cache counts to ``DUMP.bin``/``DUMP.json``
and exits with the CLI's exit code.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, compile_cache_counts  # noqa: E402


def main() -> int:
    dump, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py DUMP -- ARGS...")
    import trident47.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op.cli"):
            code = trident47.cli.main(argv)
    finally:
        tracer.uninstall()
        hits, misses = compile_cache_counts()
        tracer.dump(dump, {"compile_hits": hits, "compile_misses": misses})
    return code


if __name__ == "__main__":
    sys.exit(main())
