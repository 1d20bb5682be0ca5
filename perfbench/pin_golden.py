"""Write golden.json: digests of the clt outputs the benchmark checks against.

    python3 perfbench/pin_golden.py

Pins record.json (minus ``timings``) and series.csv of clt-out, and the
record of each clt-sweep run, for benchmark seeds 0-9 and rounds 0-3. The
digests were taken at the seed commit; every later commit must reproduce them
byte for byte, so run this again only where a change of output is intended.
"""

import json
import sys

import workloads

SEEDS = range(10)
ROUNDS = range(4)


def main() -> int:
    golden = {"clt-out": {}, "clt-sweep": {}}
    for workload in golden:
        for seed in SEEDS:
            for j in ROUNDS:
                for op in workloads.round_ops(workload, seed, j):
                    result = op.run(workloads.no_span)
                    problem = op.check(result)
                    if problem:
                        print(f"{workload} seed {seed} round {j}: {problem}")
                        return 1
                    golden[workload][op.pin_key] = workloads.output_digests(op, result)
                    print(workload, seed, j, op.pin_key, flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
