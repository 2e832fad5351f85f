"""catcw benchmark: seeded queries, each verdict checked, end-to-end and per-layer metrics.

Run from the root of a checkout (catcw is imported from ``src``):

    python3 perfbench/run.py --workload finite_tables --seed 1 --seconds 20 --trace 0

One client in one thread asks a query, waits for the verdict, checks it
against an independent reference model (``reference.py``) and asks the
next: a closed loop.  Queries come in decks (``workloads.py``); the run
stops at the end of the first deck that finishes after ``--seconds``
seconds of query time.  Times are host-normalised (``hostclock.py``); the
wall-clock figures are kept in the result file's notes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
inputs twice, for half the time each: untraced, then with a span around
every call into catcw, and prints the per-layer metrics from the traced
half plus ``bench.trace_overhead``, the untraced throughput over the traced.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A stamped copy of the result
goes to ``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``; the
first failing inputs, if any, to ``perfbench/out/failures_*.json``, which
``--replay`` runs again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import SETUP_DECKS, WORKLOADS, deck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
TAIL_BEYOND = 10
FAILURES_KEPT = 5


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(workload: str, seed: int) -> str:
    """sha256 of the canonical JSON of the first decks of inputs."""
    decks = [deck(workload, seed, d) for d in range(SETUP_DECKS)]
    return hashlib.sha256(canonical(decks).encode()).hexdigest()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Host-normalised set-up seconds of ``SETUP_RUNS`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(done.stdout)["setup_s"])
    return out


def run_phase(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Closed loop over decks until ``seconds`` wall seconds of query time
    have passed and the current deck is finished."""
    from hostclock import HostClock
    from queries import UNDECIDED, Session, run_query

    clock = HostClock()
    clock.sample(force=True)
    session = Session(tracer)
    records, failures = [], []
    seen: set[str] = set()
    repeats = 0
    spent = 0.0
    d = 0
    while spent < seconds:
        for q in deck(workload, seed, d):
            key = canonical({k: v for k, v in q.items() if k != "check_seed"})
            repeats += key in seen
            seen.add(key)
            clock.sample()
            tracer.query = len(records)
            with tracer.span("bench.query"):
                t0 = time.perf_counter()
                try:
                    outcome = run_query(q, session)
                except UNDECIDED:
                    outcome = "undecided"
                except Exception:  # a wrong verdict or an untyped error
                    outcome = "error"
                    if len(failures) < FAILURES_KEPT:
                        failures.append({"query": _replayable(q, session), "error": traceback.format_exc()})
                wall = time.perf_counter() - t0
            records.append((q["kind"], outcome, wall))
            spent += wall
        d += 1
    clock.sample(force=True)
    return {"records": records, "failures": failures, "decks": d, "repeats": repeats, "factor": clock.factor()}


def _replayable(q: dict, session) -> dict:
    """The query with what it depends on, so that it runs on its own."""
    if q["kind"] == "read" and q["of"] in session.systems:
        return {**q, "pres": session.systems[q["of"]][2]}
    return q


def end_to_end(phase: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes that say how they were taken."""
    recs = phase["records"]
    n = len(recs)
    raw = sorted(r[2] for r in recs)
    lat = [x * phase["factor"] for x in raw]
    # highest percentile with at least TAIL_BEYOND samples beyond it (the
    # maximum when the run is too short to have one)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        "queries_per_s": (n / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_tail_ms": (lat[k] * 1e3, "ms"),
    }
    notes = {
        "queries": n,
        "decks": phase["decks"],
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples_beyond": n - k - 1,
        "host_factor": phase["factor"],
        "wall_queries_per_s": n / sum(raw),
        "wall_query_p50_ms": statistics.median(raw) * 1e3,
        "wall_query_tail_ms": raw[k] * 1e3,
        "error_ratio": sum(r[1] == "error" for r in recs) / n,
        "undecided_ratio": sum(r[1] == "undecided" for r in recs) / n,
    }
    return metrics, notes


COUNTS = (
    "fpcat.complete.calls",
    "fpcat.complete.rules",
    "fpcat.complete.exhausted",
    "kernel.normalize.calls",
    "fpcat.to_finite.calls",
    "fpcat.to_finite.morphisms",
    "fpcat.to_finite.cells",
    "model_structure.search.calls",
    "sheaftopos.unit_check.calls",
    "sheaftopos.opens",
)
SPANS = (
    "fpcat.complete",
    "kernel.normalize",
    "fpcat.to_finite",
    "fpcat.validate",
    "model_structure.search",
    "colimits.pushout",
    "colimits.verify",
    "ktheory.k0_witness",
    "ktheory.replay",
    "cw.build",
    "cw.classify",
    "sheaftopos.unit_check",
)


def per_layer(phase: dict, tracer, untraced_qps: float) -> dict:
    """Counts, self times (host-normalised seconds) and ratios of the traced phase."""
    self_s = {k: v * phase["factor"] for k, v in tracer.self_times().items()}
    c = tracer.counts
    recs = phase["records"]
    n = len(recs)
    m = {name: (c[name], "count") for name in COUNTS}
    m.update({f"{name}.s": (self_s.get(name, 0.0), "s") for name in SPANS})
    norm_s = self_s.get("kernel.normalize", 0.0)
    m["kernel.normalize.letters_per_s"] = (c["kernel.normalize.letters"] / norm_s if norm_s else 0.0, "letters/s")
    # self time of the query span: checking the verdict and the glue around it
    m["bench.check.s"] = (self_s.get("bench.query", 0.0), "s")
    m["bench.repeat_share"] = (phase["repeats"] / n, "ratio")
    m["bench.error_ratio"] = (sum(r[1] == "error" for r in recs) / n, "ratio")
    m["bench.undecided_ratio"] = (sum(r[1] == "undecided" for r in recs) / n, "ratio")
    # the second validate() is a diagnostic of the traced run, not query work
    busy = sum(r[2] for r in recs) * phase["factor"] - self_s.get("fpcat.validate", 0.0)
    m["bench.trace_overhead"] = (untraced_qps / (n / busy), "ratio")
    return m


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def replay(path: Path) -> int:
    from queries import UNDECIDED, Session, run_query

    bad = 0
    for entry in json.loads(path.read_text()):
        try:
            outcome = run_query(entry["query"], Session(Tracer(False)))
        except UNDECIDED as e:
            outcome = f"undecided ({type(e).__name__})"
        except Exception:
            outcome = "error\n" + traceback.format_exc()
            bad += 1
        print(f"{entry['query']['kind']}: {outcome}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=Path, help="rerun the queries of a failures_*.json file")
    args = ap.parse_args()

    if not (SRC / "catcw" / "__init__.py").is_file():
        print(f"catcw sources not found under {SRC}; run from a catcw checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.replay:
        return replay(args.replay)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import catcw

    fp = fingerprint(args.workload, args.seed)
    if args.trace:
        base = run_phase(args.workload, args.seed, args.seconds / 2, Tracer(False))
        base_metrics, _ = end_to_end(base)
        tracer = Tracer(True)
        phase = run_phase(args.workload, args.seed, args.seconds / 2, tracer)
        metrics = per_layer(phase, tracer, base_metrics["queries_per_s"][0])
        phases = [base, phase]
        _, notes = end_to_end(phase)
    else:
        phase = run_phase(args.workload, args.seed, args.seconds, Tracer(False))
        metrics, notes = end_to_end(phase)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        phases = [phase]
    attempted = sum(len(p["records"]) for p in phases)
    failed = sum(r[1] == "error" for p in phases for r in p["records"])
    failures = [f for p in phases for f in p["failures"]][:FAILURES_KEPT]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if failures:
        (OUT / f"failures_{tag}.json").write_text(json.dumps(failures, indent=1))
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "kernel_backend": catcw.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_sha256": fp,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": stamp["metrics"]}
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(stamp, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {fp}")
    print(f"catcw {catcw.__version__} kernel={catcw.KERNEL_BACKEND}  python {stamp['python']}  nproc {stamp['nproc']}  commit {stamp['git_commit']}")
    ratios = ("error_ratio", "undecided_ratio")
    for k, v in notes.items():
        if k not in ratios:
            print(f"  note {k} = {v}")
    for name in SPANS if args.trace else ():
        if metrics[f"{name}.s"][0] == 0.0:
            print(f"  note {name}: no calls, this workload's queries do not reach it")
    # the two ratios are often exactly 0, so they are not end-to-end metrics
    # of BENCHMARK.json (the traced run reports them as bench.* metrics)
    shown = {**metrics, **{k: (notes[k], "ratio") for k in ratios}} if not args.trace else metrics
    for k, (v, u) in shown.items():
        print(f"  {k:32} {v:14.6f} {u}")
    if failures:
        print(f"  {failed} failed; first inputs in {OUT / ('failures_' + tag + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
