"""Record reference.json: the exit code and stdout sha256 of every request
that any seed of any workload can produce.

    python3 perfbench/record.py

Run it only when the program's output is meant to change, and say why in
the change that commits the new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    il = run.import_ilattice()
    directory = run.WORK / "record"
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            requests, files = workloads.pool(name, il.law_registry())
            paths = run.write_files(files, directory)
            loop = run.Loop(il.cli.main, {}, paths)
            for request in requests:
                code, stdout, _, _ = loop.call(request)
                reference[request.key] = {"exit": code, "sha256": gate.digest(stdout)}
            print(f"{name}: {len(requests)} requests", file=sys.stderr)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
