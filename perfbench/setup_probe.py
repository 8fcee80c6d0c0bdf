"""Cold set-up of one workload, in a fresh interpreter.

Prints one JSON object: the seconds spent importing ``repro``, building
the ``MatcherSession`` and matching the warm-up chunk, and the host speed
factor of ``reference.py`` measured right after.  Input generation runs
between the import and the session and is not counted.  ``run.py``
starts this script a few times in sequence and reports the median, since
a cold import can only be measured once per process.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N [--max-visits V]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-visits", type=int, default=0, help="join budget; 0 for none")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.config import SigmoConfig
    from repro.core.join import JoinBudget
    from repro.pipeline.session import MatcherSession

    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, Inputs, match_chain

    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)

    t1 = time.perf_counter()
    session = MatcherSession(
        inputs.queries, SigmoConfig(refinement_iterations=workload.iterations)
    )
    t2 = time.perf_counter()
    budget = JoinBudget(max_visits=args.max_visits) if args.max_visits else None
    match_chain(session, workload, inputs.warmup, budget)
    t3 = time.perf_counter()

    from reference import reference_seconds, speed_factor

    speed = speed_factor([reference_seconds() for _ in range(5)])
    print(json.dumps(
        {"import_s": import_s, "session_s": t2 - t1, "first_chunk_s": t3 - t2, "speed": speed}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
