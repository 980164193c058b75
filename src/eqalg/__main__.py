"""``python -m eqalg``: the command line of ``eqalg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
