"""``python -m tcsmfd``: the same command line as the ``tcsmfd`` script."""

import sys

from .cli import main

sys.exit(main())
