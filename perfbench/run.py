"""ck_ray benchmark: build, warm serving, and updates beside queries.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Everything the run writes goes under
``.pbwork/`` in the repository root. See NOTES.md for the workloads.

The workload runs in a child process. If that process dies without a
result, as when Ray's core worker aborts on a failed internal check, its
processes are killed and the run starts again with the same seed, at
most twice more. Each attempt that ends without a result, or that had to
be killed after printing one, is one more attempted and one more failed
op in the reported result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ATTEMPTS = 3
RETRY_BEFORE_S = 80.0  # start another attempt only this early in the run
SETUP_ALLOWANCE_S = 160.0  # the whole command ends within --seconds plus this


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "ck_ray", "__init__.py")):
        print(f"no ck_ray package under {ROOT}", file=sys.stderr)
        return 2
    # Ray workers import ck_ray too: run from the root and put it on their path
    sys.path.insert(0, ROOT)
    from harness import stop_marked
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
           str(args.seed), repr(args.seconds), str(args.trace)]
    limit_s = args.seconds + SETUP_ALLOWANCE_S
    t0 = time.monotonic()
    dead = 0
    child = None
    # a SIGTERM unwinds through the finally below, which stops the attempt
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        for attempt in range(1, ATTEMPTS + 1):
            env["PERFBENCH_RUN"] = uuid.uuid4().hex
            child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
            try:
                out, _ = child.communicate(
                    timeout=max(1.0, limit_s - (time.monotonic() - t0)))
            except subprocess.TimeoutExpired:
                child.kill()
                out, _ = child.communicate()
            stop_marked(env["PERFBENCH_RUN"], wait_s=2.0)
            result = _result(out)
            if result is not None:
                # printed before the cluster stops: a hang after it still
                # leaves the result, and counts as one failed op
                dead += child.returncode != 0
                result["attempted"] += dead
                result["failed"] += dead
                print(json.dumps(result), flush=True)
                return 0
            dead += 1
            print(f"[perfbench] attempt {attempt} ended with code {child.returncode} "
                  "and no result", file=sys.stderr)
            if time.monotonic() - t0 > RETRY_BEFORE_S:
                break
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
            stop_marked(env["PERFBENCH_RUN"], wait_s=0.0)


def _result(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


if __name__ == "__main__":
    sys.exit(main())
