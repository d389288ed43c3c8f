"""``python -m rowfinite``: the command-line front end of :mod:`rowfinite.cli`."""

import sys

from .cli import main

sys.exit(main())
