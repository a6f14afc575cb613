"""A traced CLI call: ``python3 bench/traced_cli.py <spans.json> <gaussep arguments>``.

Installs the span wrappers, runs ``python -m gaussep <arguments>`` in this
interpreter and writes the recorded spans to ``<spans.json>`` on exit.  The
exit code and standard output are those of the plain command.
"""

import runpy
import sys

import gaussep.cli  # noqa: F401  (loads every module the CLI binds names in)
import spans


def main() -> None:
    path = sys.argv[1]
    sys.argv = ["gaussep"] + sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.enabled = True
    try:
        runpy.run_module("gaussep", run_name="__main__", alter_sys=True)
    finally:
        recorder.enabled = False
        recorder.dump(path)


if __name__ == "__main__":
    main()
