"""Check the rank search on every input of the benchmark's cold band.

For each of the 3,636 (m, n, alpha) with 10 <= m, n <= 100,
400 <= m*n <= 1000 and alpha in {0.05, 0.1, 0.2}, ``select_ranks`` must
choose the pair of the plain gallop over full-rule entries in ``oracles``,
and the chosen value and every entry both read must lie within
``oracles.SEARCH_TOLERANCE`` (1e-14) of the gallop's.
Prints each difference and exits 1 if there is any. Pytest does not
collect this file; run it from the repository root with

    PYTHONPATH=src python tests/cold_band.py
"""

import sys

from oracles import COLD_BAND, search_differences


def main() -> int:
    problems = [problem for inputs in COLD_BAND for problem in search_differences(*inputs)]
    print("\n".join(problems))
    print(f"{len(COLD_BAND)} inputs, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
