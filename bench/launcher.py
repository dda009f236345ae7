"""Traced ``taquin`` child: times the CLI import, installs the spans, runs ``main``.

Usage: python3 launcher.py SPANS_FILE ARGS...  (with taquin's ``src`` on
PYTHONPATH).  Exits with the CLI's own exit code; the spans go to SPANS_FILE.
"""

import sys
from time import perf_counter

from spans import Tracer

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import taquin.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = taquin.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file, import_s=import_s)
    sys.exit(code)
