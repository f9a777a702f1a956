"""``python -m mfmls``: the ``mfmls`` command, run from a source checkout."""
from .cli.main import main

raise SystemExit(main())
