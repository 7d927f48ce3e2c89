"""Set-up probe: time to import multibump and load one config.

Run in a fresh interpreter, ``python3 bench/setup_probe.py CONFIG``.  Prints
the elapsed seconds, raw and at the reference host speed (calibration.py),
as one JSON object.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from multibump.pipeline import load_config
    load_config(sys.argv[1])
    elapsed = time.perf_counter() - start
    from calibration import Calibration
    host = Calibration()
    host.run(0.1)
    print(json.dumps({"raw_setup_s": elapsed, "setup_s": host.to_reference(elapsed)}))
