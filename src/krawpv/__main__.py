"""``python -m krawpv``: the ``krawpv`` command, also from a checkout that is not installed."""

import sys

from .cli import main

sys.exit(main())
