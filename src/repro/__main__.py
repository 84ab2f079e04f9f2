"""``python -m repro`` — the CLI entry point as a runnable module.

Being spawnable as ``[sys.executable, "-m", "repro", ...]`` is what lets
the supervisor (:mod:`repro.serving.supervisor`) — and through it the
chaos scheduler's process plane (:mod:`repro.reliability.chaos`) — run
the server as a real child OS process without guessing at console-script
install paths.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
