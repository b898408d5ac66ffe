"""Record the outputs that run.py compares against for the default seed.

    python3 perfbench/record_reference.py

Runs every workload untraced on DEFAULT_SEED -- the first SCAN_CALLS scan
calls, and every instance of a factor pool -- and writes reference.json.
Record again only when a change is meant to alter these outputs.
"""

import json
import sys

from run import DEFAULT_SEED, REFERENCE, import_library

# more scan calls than one run of the committed length makes
SCAN_CALLS = {"scan_simple": 12, "scan_multigraph": 7}


def main():
    error = import_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    reference = {}
    for name, workload in WORKLOADS.items():
        workload.prepare(DEFAULT_SEED)
        units = SCAN_CALLS.get(name) or workload.pool_size
        reference[name] = dict(workload.run_unit(u, None).reference for u in range(units))
        print(name, len(reference[name]), "units", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
