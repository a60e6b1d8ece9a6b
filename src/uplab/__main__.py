"""``python -m uplab``: the ``uplab`` command line."""

import sys

from .cli import main

sys.exit(main())
