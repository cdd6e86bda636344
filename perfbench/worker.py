"""The benchmark's service worker: ``run_worker`` behind the benchmark's hooks.

Started by the traced ``service_lstm`` run against the coordinator it
runs, with the environment (pinned BLAS threads, ``PYTHONPATH``) it
inherits from ``run.py``, so the spans come from the process doing the
work; untraced sweeps use the worker the service executor spawns.  It
installs every hook in ``layers.HOOKS``, returns after ``--max-cells``
cells (or on SIGTERM, releasing its cell) and then writes the spans to
``--out`` as JSON.

    python3 perfbench/worker.py --coordinator URL --store DIR --out FILE \
        --max-cells N
"""

from __future__ import annotations

import argparse
from pathlib import Path

from layers import HOOKS
from tracing import Tracer, write_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coordinator", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--max-cells", required=True, type=int)
    args = parser.parse_args()

    from repro.api import run_worker

    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        run_worker(args.store, coordinator=args.coordinator, max_cells=args.max_cells)
    finally:
        tracer.uninstall()
        write_trace(args.out, tracer.export())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
