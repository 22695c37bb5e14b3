"""Warm passes: one process that has imported ``ltoeplitz.cli`` runs passes on request.

Reads one JSON list of argv lists per line on stdin, runs them one after
another through ``ltoeplitz.cli.main`` and answers with one JSON line:
each command's exit code and wall seconds and, with ``--trace``, the self
seconds and counts of the traced spans. Ends when stdin closes.
Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import tracing


def main() -> int:
    import ltoeplitz.cli

    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    channel = sys.stdout
    for line in sys.stdin:
        argvs = json.loads(line)
        sink = io.StringIO()
        reply = {"exits": [], "seconds": []}
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                start = time.perf_counter()
                reply["exits"].append(ltoeplitz.cli.main(argv))
                reply["seconds"].append(time.perf_counter() - start)
        if tracer is not None:
            reply.update(tracer.take())
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
