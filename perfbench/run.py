#!/usr/bin/env python3
"""The capitula benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop: one client in one
process sends the next request only after the previous answer is back.
Every request is timed on its own, under a per-request deadline; a request
that raises, overruns the deadline or fails the oracle's own cross-checks
counts as failed, by error class.  Every answer is checked against the
identities of its workload and, at the reference seed, against the stored
reference answers; a wrong answer makes the run exit with code 1.

With --trace 0 the last line is a JSON object with the end-to-end metrics.
With --trace 1 the run first measures a third of the time untraced, then
replays the same requests with spans around every public entry point of
each layer (spans.py) and prints the per-layer metrics instead; the spans
are written to .bench_out/ at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer, per_layer_metrics
from workloads import WORKLOADS, VerdictFailure, WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 1
SETUP_REPEATS = 5
MIN_REQUESTS = 100  # so that p90 always has ten samples beyond it


class Deadline(BaseException):
    """Raised by SIGALRM inside a request that overran its deadline.

    A BaseException, so that no handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# set-up

def load_program():
    """Import capitula from this checkout's src/, afresh."""
    for name in [n for n in sys.modules if n == "capitula" or n.startswith("capitula.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {short: importlib.import_module(full) for short, full in [
        ("errors", "capitula.errors"), ("abelian", "capitula.abelian"),
        ("cohomology", "capitula.cohomology"), ("profile", "capitula.profile"),
        ("formulas", "capitula.formulas"), ("verify", "capitula.verify"),
        ("gf", "capitula.fforacle.gf"), ("curves", "capitula.fforacle.curves"),
        ("picard", "capitula.fforacle.picard"), ("corpus", "capitula.fforacle.corpus"),
    ]}
    if Path(mods["errors"].__file__).resolve().parent != SRC / "capitula":
        raise ImportError(f"capitula was imported from {mods['errors'].__file__}")
    return SimpleNamespace(**mods)


def set_up(workload, seed):
    """Import, generate the first round of requests, build the constant
    fields; later rounds are generated between timed requests."""
    start = time.perf_counter()
    api = load_program()
    stream = workload.requests(api, seed)
    first = next(stream)
    cap = api.picard.OracleConfig().max_field_size
    for q in workload.fields:
        field = api.gf.GF(q)
        m = 2
        while q ** m <= cap:
            api.gf.extension(field, m, cap)
            m += 1
    return time.perf_counter() - start, api, first, stream


# ---------------------------------------------------------------------------
# one request

def canonical(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def request_digest(req):
    return hashlib.sha256(json.dumps(req, sort_keys=True).encode()).hexdigest()[:16]


class Checker:
    """Judges each answer: identities always, reference answers at the
    reference seed.  Status is "ok", an error class, or "wrong"."""

    def __init__(self, workload, seed, reference_dir):
        self.workload = workload
        self.reference = []
        if seed == REFERENCE_SEED:
            path = reference_dir / f"{workload.name}.json"
            with open(path) as fh:
                self.reference = json.load(fh)["answers"]
        self.wrong: list[str] = []
        self.first_errors: dict[str, str] = {}

    def judge(self, api, index, req, status, result):
        answer = None
        if status == "ok":
            try:
                answer = canonical(self.workload.answer(api, req, result))
                self.workload.identities(api, req, answer)
            except VerdictFailure as exc:
                status = "verdict"
                self.first_errors.setdefault(status, str(exc))
            except WrongAnswer as exc:
                return self._wrong(index, str(exc))
        else:
            self.first_errors.setdefault(status, str(result)[:160])
        if index < len(self.reference):
            ref = self.reference[index]
            if ref["request"] != request_digest(req):
                return self._wrong(index, "request differs from the reference request")
            if ref["status"] == "ok" and status in ("ok", "verdict") \
                    and answer != ref["answer"]:
                return self._wrong(index, f"answer {answer} differs from reference "
                                          f"{ref['answer']}")
        return status, answer

    def _wrong(self, index, message):
        self.wrong.append(f"request {index}: {message}")
        return "wrong", None


def execute(workload, api, req, tracer=None, index=0):
    """Time one request; returns (status, seconds, result or exception)."""
    result = None
    status = "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
        try:
            if tracer is not None:
                tracer.begin(index)
            result = workload.run(api, req)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.end()
    except Deadline:
        status = "deadline"
        result = f"over the {workload.deadline_s} s deadline"
    except api.errors.CapitulaError as exc:
        status = type(exc).__name__
        result = exc
    except Exception:  # a crash in the program is a failed request, not a crashed run
        status = "crash:" + traceback.format_exc(limit=1).strip().splitlines()[-1][:80]
    return status, time.perf_counter() - start, result


class Records:
    """Latencies and failure counts of a run; requests kept for a replay."""

    def __init__(self, keep=False):
        self.times = array("d")
        self.failures = Counter()
        self.rounds = [] if keep else None

    @property
    def failed(self):
        return sum(self.failures.values())


def run_loop(workload, api, rounds, seconds, checker, tracer=None, keep=False,
             min_requests=0):
    """Send whole rounds of requests until `seconds` have passed and at
    least `min_requests` were sent, so that every run holds the same mix."""
    rec = Records(keep)
    start = time.perf_counter()
    for batch in rounds:
        for req in batch:
            index = len(rec.times)
            status, elapsed, result = execute(workload, api, req, tracer, index)
            status, _ = checker.judge(api, index, req, status, result)
            rec.times.append(elapsed)
            if status != "ok":
                rec.failures[status] += 1
        if keep:
            rec.rounds.append(batch)
        if time.perf_counter() - start >= seconds and len(rec.times) >= min_requests:
            break
    return rec


def rounds_of(first, stream):
    yield first
    yield from stream


# ---------------------------------------------------------------------------
# metrics

def percentile(sorted_values, p):
    """Nearest-rank percentile of sorted values, p in (0, 100]."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n):
    """90, or the highest whole percentile with at least ten samples beyond it."""
    return min(90, int(100 * (n - 10) / n)) if n > 10 else 50


def end_to_end(rec, setup_times, peak_rss_kb):
    times = sorted(rec.times)
    n = len(times)
    pct = tail_percentile(n)
    metrics = {
        "ops_per_s": (n / sum(times), "1/s"),
        "p50_ms": (statistics.median(times) * 1000, "ms"),
        "p90_ms": (percentile(times, pct) * 1000, "ms"),
        "ok_frac": ((n - rec.failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, pct


def describe(workload, seed, rec, metrics, pct, setup_times):
    n = len(rec.times)
    notes = {
        "p90_ms": f"(p{pct} of {n} samples)",
        "ok_frac": f"(fail_frac {rec.failed / n:.4f}: {rec.failed} of {n} failed)",
        "setup_s": f"(median of {len(setup_times)} set-ups)",
    }
    print(f"workload {workload.name} seed {seed}: {n} requests, closed loop, 1 client, "
          f"deadline {workload.deadline_s} s")
    for name, m in metrics.items():
        print(f"  {name:12s} {m['value']:.4f} {m['unit']} {notes.get(name, '')}")
    if rec.failures:
        print("  failures by class: " + ", ".join(
            f"{k} {v}" for k, v in rec.failures.most_common()))


def layer_shares(tracer, total):
    parts = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])
    text = ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in parts)
    return text + f"; of which abelian.smith_normal_form {100 * tracer.counts['snf_s'] / total:.1f}%"


def run_all(argv):
    """Each workload in its own process, so that set-up and peak memory are
    its own; exits with the first non-zero code."""
    codes = []
    for name in WORKLOADS:
        args = [{"all": name, "--workload=all": f"--workload={name}"}.get(a, a) for a in argv]
        codes.append(subprocess.run([sys.executable, __file__, *args]).returncode)
    return next((c for c in codes if c), 0)


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                        help="directory of reference answers for the reference seed")
    args = parser.parse_args(argv)

    if not (SRC / "capitula" / "__init__.py").is_file():
        print(f"error: no capitula sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, api, first, stream = set_up(workload, args.seed)
        setup_times.append(elapsed)
    checker = Checker(workload, args.seed, args.reference)

    if not args.trace:
        rec = run_loop(workload, api, rounds_of(first, stream), args.seconds, checker,
                       min_requests=MIN_REQUESTS)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, pct = end_to_end(rec, setup_times, peak_rss_kb)
        describe(workload, args.seed, rec, metrics, pct, setup_times)
        attempted, failed = len(rec.times), rec.failed
    else:
        untraced = run_loop(workload, api, rounds_of(first, stream), args.seconds / 3,
                            checker, keep=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, api, untraced.rounds, args.seconds / 3, checker,
                              tracer)
        finally:
            tracer.uninstall()
        # the same requests, untraced and traced
        n = len(traced.times)
        rate = [n / sum(untraced.times[:n]), n / sum(traced.times)]
        metrics = per_layer_metrics(tracer, n, rate[1], rate[0])
        total = sum(traced.times)
        print(f"workload {workload.name} seed {args.seed}: traced replay of {n} "
              f"requests, {len(tracer.spans)} spans, {total:.3f} s")
        print(f"  self time by layer: {layer_shares(tracer, total)}")
        print(f"  trace overhead: traced/untraced ops_per_s = {rate[1] / rate[0]:.4f}")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
        attempted = len(untraced.times) + n
        failed = untraced.failed + traced.failed

    for kind, message in checker.first_errors.items():
        print(f"  first {kind}: {message}")
    for line in checker.wrong[:10]:
        print(f"WRONG {line}")
    result = {
        "correct": not checker.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
