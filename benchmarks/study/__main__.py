"""``python -m benchmarks.study``: see :mod:`benchmarks.study.run`."""

import sys

from benchmarks.study.run import main

sys.exit(main())
