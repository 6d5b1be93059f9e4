"""A fresh interpreter for set-up rounds and import timing.

Usage: ``python3 perfbench/child.py TASKS.json``, where the file holds a
list of ``fedcal`` argument lists. The child times ``import fedcal.cli``
before anything else imports numpy or scipy, runs each argument list
through ``fedcal.cli.main`` in order, probes the machine's speed before and
after the tasks, and prints one JSON line:
``{"import_s": ..., "tasks_s": ..., "speed": ..., "codes": [...]}``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    import fedcal.cli

    import_s = perf_counter() - start
    from probe import machine_probe

    with open(sys.argv[1], encoding="utf-8") as handle:
        tasks = json.load(handle)
    speed = machine_probe()
    codes = []
    start = perf_counter()
    for argv in tasks:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(fedcal.cli.main(argv))
    tasks_s = perf_counter() - start
    speed = (speed + machine_probe()) / 2
    print(json.dumps({"import_s": import_s, "tasks_s": tasks_s, "speed": speed, "codes": codes}))


if __name__ == "__main__":
    main()
