"""``python -m repro`` — run AITF experiments from the command line."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
