"""Run one `dasrate` CLI command the way the console script does, noting
when `import dasrate.cli` finished.

    python3 invoke.py ROOT STAMP_FILE [dasrate arguments...]

Imports dasrate from ROOT/src and writes time.monotonic_ns() after the
import to STAMP_FILE, so the caller can split its wall time into set-up
(interpreter start plus import) and the command itself. With no dasrate
arguments it stops after the import.
"""

import sys
import time
from pathlib import Path

root, stamp, argv = Path(sys.argv[1]).resolve(), sys.argv[2], sys.argv[3:]
sys.path.insert(0, str(root / "src"))

import dasrate.cli  # noqa: E402

imported = time.monotonic_ns()
if not Path(dasrate.cli.__file__).resolve().is_relative_to(root / "src"):
    sys.exit(f"dasrate was imported from {dasrate.cli.__file__}, not {root}/src")
with open(stamp, "w") as f:
    f.write(str(imported))
sys.exit(dasrate.cli.main(argv) if argv else 0)
