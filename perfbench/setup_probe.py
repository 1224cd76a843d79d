"""Set-up probe: import zecheck and build the channel for dimension d.

    PYTHONPATH=src python3 perfbench/setup_probe.py D [--fingerprint]

The benchmark times this process from spawn to exit.  With
--fingerprint it prints one JSON line naming the zecheck it imported and
the numpy and BLAS builds it linked, for the machine fingerprint.
"""

from __future__ import annotations

import json
import sys

import zecheck


def main(argv: list[str]) -> int:
    d = int(argv[0])
    zecheck.build_channel(d, zecheck.enumerate_clifford(d))
    if "--fingerprint" in argv[1:]:
        import numpy as np

        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        print(json.dumps({
            "zecheck_file": zecheck.__file__,
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
