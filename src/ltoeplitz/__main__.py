"""One CLI run per process: ``python -m ltoeplitz`` and the ``ltoep`` script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run ``cli.main`` on the command line and exit with its status.

    The import-time heap lives until the process ends, so it is frozen out
    of the collector's reach first: the collections at interpreter shutdown
    then skip it. ``cli.main`` itself never freezes, as one process may call
    it many times.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
