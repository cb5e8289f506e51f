"""Start `gspcert certify` from the source tree, as an installed script would.

    python3 perfbench/cli_child.py [--trace-out PATH] certify INPUT [options]

The package is imported from src/ with `from gspcert.cli import main`
(`python -m gspcert.cli` warns about a double import).  With --trace-out
the child also records spans around the layer calls and writes them, with
its start and import times, to PATH as JSON.
"""
import time

T0 = time.time_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
trace_out = None
if sys.argv[1:2] == ["--trace-out"]:
    trace_out = Path(sys.argv[2])
    del sys.argv[1:3]

from gspcert.cli import main  # noqa: E402

IMPORTED = time.time_ns()

if trace_out is None:
    main(prog_name="gspcert")
else:
    from spans import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        main(prog_name="gspcert")
    finally:
        trace_out.write_text(
            json.dumps({"t0": T0, "import_ns": IMPORTED - T0, "spans": tracer.export()})
        )
