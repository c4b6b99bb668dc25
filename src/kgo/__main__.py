"""`python -m kgo ...` runs the command-line interface, also from a checkout
with `src` on PYTHONPATH and no install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
