"""``python -m sidkit``: the ``sidkit`` command, with one ``sidkit.cli`` module in the process."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
