"""Run one qccvqe CLI command in this process, as the console script does.

Usage: python3 child.py [--spans PATH] <qccvqe arguments...>

With --spans, every traced layer function is wrapped before the command
runs, and the spans are written to PATH as JSON once it ends.
"""

import sys
import time

t_import = time.perf_counter()
from qccvqe import chem, cli, oracle, simulator, solver  # noqa: E402

t_ready = time.perf_counter()


def main() -> None:
    args = sys.argv[1:]
    if args[:1] != ["--spans"]:
        cli.main(args=args, prog_name="qccvqe")
        return
    import json

    from spans import Tracer

    spans_path, args = args[1], args[2:]
    tracer = Tracer()
    tracer.record("cli.import", t_import, t_ready)
    tracer.install(
        {"cli": cli, "solver": solver, "simulator": simulator, "chem": chem,
         "oracle": oracle}
    )
    try:
        cli.main(args=args, prog_name="qccvqe")
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    main()
