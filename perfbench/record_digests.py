"""Record the reference output digests of every query any seed can draw.

Run from the repository root after a change that is meant to alter outputs:

    PYTHONPATH=src python3 perfbench/record_digests.py

Each query runs on one session per workload and size; the file maps the
query's key to the SHA-256 of its canonical JSON line.
"""

import json

import workloads


def main() -> None:
    digests = {}
    for name in workloads.WORKLOADS:
        for size in ("small", "full"):
            workload = workloads.make(name, size)
            workload.setup()
            for query in workload.universe():
                text = workload.run(workload.prepare(query))
                digests[workload.key(query)] = workloads.digest(text)
            print(f"{name} ({size}): {len(digests)} digests so far")
    workloads.DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
