"""Run one toriceig CLI call with the tracing wrappers installed.

    python3 perfbench/traced_cli.py SPANS_JSON <toriceig arguments...>

The exit code and output are the CLI's own; the spans go to SPANS_JSON.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    perfbench.use_checkout_src()
    import toriceig.cli

    from perfbench import tracing

    tracer = tracing.Tracer().install()
    try:
        return toriceig.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
