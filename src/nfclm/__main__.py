"""``python -m nfclm``: the command line of :mod:`nfclm.cli`."""

import sys

from .cli import main

sys.exit(main())
