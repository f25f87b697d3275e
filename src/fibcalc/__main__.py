"""`python -m fibcalc ...`: the command-line interface of `fibcalc.cli`."""

import sys

from .cli import main

sys.exit(main())
