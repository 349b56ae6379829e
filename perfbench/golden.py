"""Capture the golden CLI outputs that the audit workload compares byte for byte.

    python3 perfbench/golden.py

Run it at the commit whose output is the reference; it rewrites
perfbench/golden.json.  `minimize` has no golden bytes: the audit checks its
parsed JSON against value thresholds instead.
"""

import json
import sys

import run  # noqa: F401  (pins threads and puts this checkout's package on the path)
from workloads import (
    GOLDEN_CLI,
    GOLDEN_PATH,
    VERIFY_SEEDS,
    WITNESS_OUT,
    cli_subprocess,
    sha256_of,
    verify_argv,
)


def capture(argv: list) -> str:
    res = cli_subprocess(argv)()
    if res.code != 0 or res.stderr:
        sys.exit(f"{' '.join(argv)} exited {res.code}: {res.stderr}")
    return res.stdout


def main() -> int:
    golden = {key: capture(argv) for key, argv in GOLDEN_CLI.items()}
    golden["witness_out_sha256"] = sha256_of(WITNESS_OUT)
    golden["verify"] = {str(s): capture(verify_argv(s)) for s in range(VERIFY_SEEDS)}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
