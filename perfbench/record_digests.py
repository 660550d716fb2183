"""Record or check the answer digests in ``perfbench/digests.json``.

A digest hashes the columns and rows of the first ``digest_ops`` answers
of a workload, in order, for one seed.  The benchmark compares every
run against the recorded digest of its (workload, seed) and fails on a
difference.  Usage, from the repository root:

    python3 perfbench/record_digests.py --seeds 0-20            # record
    python3 perfbench/record_digests.py --seeds 1,2 --check     # verify

Recording replaces only the listed (workload, seed) entries.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, DIGESTS, ROOT, Loop, build


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def digest(workload_name: str, seed: int) -> tuple[str, list[str]]:
    loop = Loop(build(workload_name, seed))
    while loop.digest_hex is None:
        loop.step()
    loop.finish()
    return loop.digest_hex, loop.wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,2")
    parser.add_argument(
        "--workloads", default="dashboard,poll,stream", help="comma-separated"
    )
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    table = json.loads(DIGESTS.read_text())
    bad = 0
    for name in args.workloads.split(","):
        recorded = table["digests"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            got, wrong = digest(name, seed)
            if wrong:
                print(f"{name} seed {seed}: wrong answers {wrong[:3]}")
                bad += 1
                continue
            if args.check:
                ok = recorded.get(str(seed)) == got
                bad += not ok
                print(f"{name} seed {seed}: {'ok' if ok else 'MISMATCH'} {got}")
            else:
                recorded[str(seed)] = got
                print(f"{name} seed {seed}: {got}", flush=True)
    if not args.check:
        for name in table["digests"]:
            table["digests"][name] = dict(
                sorted(table["digests"][name].items(), key=lambda kv: int(kv[0]))
            )
        DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
