"""Regenerate references.json: the digest of every op's exact result for the
default seed (0) and the holdout seed (1) of each workload.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are known to be right; it refuses to
record an op whose own checks fail.
"""

import json
import sys
from time import perf_counter

from checks import REFERENCES
from run import run_pass
from workloads import WORKLOADS, generate, op_key

SEEDS = (0, 1)


def main():
    refs = {}
    for workload in WORKLOADS:
        digests = refs.setdefault(workload, {})
        for seed in SEEDS:
            ops = generate(workload, seed)
            rep = run_pass(workload, ops, 0, perf_counter() + 600)
            for op, (problems, digest, _) in zip(ops, rep["results"]):
                key = op_key(op)
                if problems or digests.get(key, digest) != digest:
                    sys.exit(f"{workload} seed {seed}: {key}: {problems}")
                digests[key] = digest
        print(f"{workload}: {len(digests)} ops", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
