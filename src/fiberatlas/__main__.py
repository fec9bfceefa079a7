"""`python -m fiberatlas ...`: the same commands as the `fiberatlas`
console script."""
import sys

from .cli import main

sys.exit(main())
