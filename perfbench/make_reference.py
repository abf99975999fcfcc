#!/usr/bin/env python3
"""Write the reference answers of the benchmark at the reference seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload, the first requests of the reference seed are run with
a generous deadline and checked against the workload's identities; the
request digest, the outcome (ok or error class) and the answer are stored
in perfbench/reference/<workload>.json.  Regenerate only when the program's
answers are known to be right, since a later run compares against them.
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

# enough requests to cover a run of the reference seed with room to spare
REFERENCE_REQUESTS = {
    "oracle_curves": 400,
    "oracle_wide": 400,
    "calculators": 2000,
    "group_cohomology": 3200,
}
REFERENCE_DEADLINE_S = 60.0


def main(names):
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    for name in names or sorted(WORKLOADS):
        workload = replace(WORKLOADS[name], deadline_s=REFERENCE_DEADLINE_S)
        _, api, first, stream = run.set_up(workload, run.REFERENCE_SEED)
        checker = run.Checker(workload, seed=None, reference_dir=None)
        answers = []
        requests = (req for batch in run.rounds_of(first, stream) for req in batch)
        for index in range(REFERENCE_REQUESTS[name]):
            req = next(requests)
            status, _, result = run.execute(workload, api, req)
            status, answer = checker.judge(api, index, req, status, result)
            if status == "wrong":
                raise SystemExit(f"{name}: {checker.wrong[-1]}")
            answers.append({"request": run.request_digest(req), "status": status,
                            "answer": answer})
        path = run.REFERENCE_DIR / f"{name}.json"
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(a, sort_keys=True, separators=(",", ":"))
                            for a in answers)
        with open(path, "w") as fh:
            fh.write(f'{{"workload": "{name}", "seed": {run.REFERENCE_SEED}, '
                     f'"answers": [\n{lines}\n]}}\n')
        failed = sum(1 for a in answers if a["status"] != "ok")
        print(f"{name}: {len(answers)} answers, {failed} failed requests -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
