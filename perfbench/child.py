"""One benchmark sample in a fresh interpreter.

    python3 child.py cli <src-dir> <report.json> <qkdlab args...>
    python3 child.py import <src-dir> <report.json> cli|deps

``cli`` mode times ``import qkdlab.cli`` (set-up), then one CLI command
run in-process exactly as the ``qkdlab`` entry point would run it, and
writes {setup_s, wall_s, peak_rss_mb, exit_code} to the report file.  The
process exits with the command's exit code.

``import`` mode times only an import: ``cli`` imports ``qkdlab.cli``;
``deps`` imports its third-party dependencies (numpy, scipy.optimize,
click) on their own.
"""

import json
import os
import resource
import sys
import time


def _import_qkdlab_cli(src):
    sys.path.insert(0, src)
    import qkdlab.cli

    # never measure an installed copy in place of the checkout's sources
    origin = os.path.realpath(qkdlab.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qkdlab imported from {origin}, not from {src}")
    return qkdlab.cli


def main(argv):
    mode, src, report = argv[0], argv[1], argv[2]
    rest = argv[3:]
    result = {}
    if mode == "import":
        t0 = time.perf_counter()
        if rest == ["deps"]:
            import click  # noqa: F401
            import numpy  # noqa: F401
            import scipy.optimize  # noqa: F401
        else:
            _import_qkdlab_cli(src)
        result["import_s"] = time.perf_counter() - t0
        code = 0
    else:
        t0 = time.perf_counter()
        cli = _import_qkdlab_cli(src)
        t1 = time.perf_counter()
        try:
            cli.main(rest, prog_name="qkdlab", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        t2 = time.perf_counter()
        result.update(setup_s=t1 - t0, wall_s=t2 - t1, exit_code=code)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(report, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
