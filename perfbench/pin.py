"""Recompute ``pinned.json``: the exact result of every benchmark input, from
the package as it is now.  Run it only when a change is meant to alter those
results; the benchmark treats any difference from the pinned values as a
failed op.

    python3 perfbench/pin.py
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (sets nothing up on import)


def main() -> int:
    for key in run.BLAS_PINS:
        os.environ[key] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    run.OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    pinned = {}
    for name, cls in WORKLOADS.items():
        w = cls(0, run.OUT, None)
        w.setup()
        values = dict(w.setup_values)
        for slot, arg in w.all_inputs():
            result = w.run(slot, arg)
            problem = w.check(slot, arg, result)
            if problem:
                raise SystemExit(f"{name}: {problem}")
            value = w.pinned_value(slot, arg, result)
            if value is not None:
                values[w.pin_key(slot, arg)] = value
        pinned[name] = values
        print(f"{name}: pinned {len(values)} values", file=sys.stderr)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
