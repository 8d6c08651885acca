"""``python -m lqmle``: the command-line interface, as the ``lqmle`` script runs it."""

import sys

from .cli import main

sys.exit(main())
