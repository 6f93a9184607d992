"""One set-up measurement in a fresh interpreter.

    python3 mcbench/setup_child.py SRC_DIR INPUT...

Imports the program from SRC_DIR and loads every INPUT (a file or
builtin:<name>) as the CLI would, bracketed by the calibration kernel,
and prints {"raw_s", "kernel_s", "ref_s"} as one JSON line.
"""

import json
import sys
import time

import calib


def main(argv: list) -> int:
    src, specs = argv[0], argv[1:]
    k0 = calib.kernel_seconds()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import mcdescent.cli  # noqa: F401 - the import a CLI invocation pays
    from mcdescent.io import load_document

    for spec in specs:
        load_document(spec)
    dt = time.perf_counter() - t0
    k1 = calib.kernel_seconds()
    print(json.dumps({"raw_s": dt, "kernel_s": (k0 + k1) / 2,
                      "ref_s": calib.to_ref(dt, k0, k1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
