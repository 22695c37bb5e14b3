"""One CLI run per process: ``python -m ltoeplitz`` and the ``ltoep`` script.

Importing this module loads no numpy and leaves the collector alone: ``run``
imports the CLI itself.
"""

import atexit
import gc
import os
import sys


def run() -> None:
    """Run ``cli.main`` on the command line and exit with its status.

    The collector is paused while the CLI imports ``cli``, ``output`` and
    numpy: their heap lives until the process ends, so collecting it finds
    nothing. It is then frozen out of the collector's reach, and collection
    runs again during ``main``, where the package modules a command reads
    run on first use. Once ``main`` has returned, the atexit handlers run
    and stdout and stderr are flushed, in the interpreter's own shutdown
    order; then the process ends without tearing down its modules and heap,
    which the OS reclaims anyway. An exception or ``SystemExit`` out of
    ``main``, or a flush that fails (a closed pipe), takes the normal exit
    instead.
    ``cli.main`` itself never freezes or exits, as one process may call it
    many times.
    """
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
