#!/usr/bin/env python3
"""The germ benchmark: seeded, closed-loop streams of questions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends the next question only after the previous answer.  Each
answer is checked after the stream, outside the timed region.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when ``--trace 0``, the
per-layer metrics when ``--trace 1``.  Every run also writes a result file
with the run's metadata under ``.bench-results/`` (see ``--out``).

Untraced runs answer whole rounds (one question per stratum of the
workload) until the stream has lasted ``--seconds`` and answered at least
100 questions.  Traced runs answer a fixed number of rounds twice, first
plain and then with germ's public callables wrapped in spans, so every
count in them repeats exactly for a seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "descent-ext": "wl_descent",
    "depth-bounds-q": "wl_depth",
    "ff-solve": "wl_ff",
    "cli-sessions": "wl_cli",
}
MIN_QUESTIONS = 100     # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
WARMUP_QUESTIONS = 3

END_TO_END = {
    "questions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, where the value comes from in the trace summary)
PER_LAYER = {
    "germs.group_level_s": ("s", "incl germs.group_level"),
    "germs.group_level_calls": ("count", "calls germs.group_level"),
    "germs.act_s": ("s", "incl germs.act"),
    "germs.act_calls": ("count", "calls germs.act"),
    "germs.self_s": ("s", "self germs"),
    "jets.rref_s": ("s", "incl jets.rref"),
    "jets.rref_calls": ("count", "calls jets.rref"),
    "jets.rref_entries": ("count", "count jets.rref_entries"),
    "jets.membership_s": ("s", "incl jets.membership"),
    "jets.membership_calls": ("count", "calls jets.membership"),
    "jets.mul_s": ("s", "incl jets.mul"),
    "jets.mul_calls": ("count", "calls jets.mul"),
    "jets.substitute_s": ("s", "incl jets.substitute"),
    "jets.substitute_calls": ("count", "calls jets.substitute"),
    "jets.self_s": ("s", "self jets"),
    "tangent.tangent_space_s": ("s", "incl tangent.tangent_space"),
    "tangent.tangent_space_calls": ("count", "calls tangent.tangent_space"),
    "tangent.comparison_bound_s": ("s", "incl tangent.comparison_bound"),
    "tangent.self_s": ("s", "self tangent"),
    "descent.check_witness_s": ("s", "incl descent.check_witness"),
    "descent.descend_s": ("s", "incl descent.descend"),
    "descent.steps": ("count", "count descent.steps"),
    "descent.self_s": ("s", "self descent"),
    "polysys.compile_system_s": ("s", "incl polysys.compile_system"),
    "polysys.unknowns": ("count", "count polysys.unknowns"),
    "polysys.equations": ("count", "count polysys.equations"),
    "polysys.brute_solve_s": ("s", "incl polysys.brute_solve"),
    "polysys.evaluate_calls": ("count", "calls polysys.evaluate"),
    "polysys.groebner_s": ("s", "incl polysys.groebner"),
    "polysys.groebner_pairs": ("count", "count polysys.groebner_pairs"),
    "polysys.orbit_split_s": ("s", "incl polysys.orbit_split"),
    "polysys.self_s": ("s", "self polysys"),
    "cli.parse_session_s": ("s", "incl cli.parse_session"),
    "cli.self_s": ("s", "self cli"),
    "expr.parse_s": ("s", "incl expr.parse"),
    "expr.parse_calls": ("count", "calls expr.parse"),
}
# measured outside the span summary
PER_LAYER_EXTRA = {"cli.import_s": "s", "trace.overhead_ratio": "ratio",
                   "trace.coverage": "ratio"}


def per_layer_units() -> dict:
    from scalars import FIELDS

    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    for op in ("mul", "inv"):
        for label in FIELDS:
            units[f"exactfield.{op}_us.{label}"] = "us"
    units.update(PER_LAYER_EXTRA)
    return units


# -- environment -------------------------------------------------------------

def import_germ():
    """Import germ from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import germ
    except ImportError as e:
        sys.exit(f"bench: cannot import germ from {SRC}: {e}")
    if not os.path.abspath(germ.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: germ was imported from {germ.__file__}, not from {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def metadata(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "src_lines": _src_lines(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha():
    """HEAD of the checkout's own .git, read as files; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


# -- fresh-process timings ---------------------------------------------------

def _time_child(argv) -> float:
    # no timeout: with one, subprocess polls for the exit on a sleep ladder
    # that reaches 50 ms steps and rounds the measured time up to it
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(workload: str) -> float:
    """Median wall time of a fresh process that imports germ and builds the
    workload's fields, extensions and rings."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload]
    return statistics.median(_time_child(argv) for _ in range(SETUP_REPEATS))


def import_seconds() -> float:
    argv = [sys.executable, "-c", "import germ.cli"]
    return statistics.median(_time_child(argv) for _ in range(IMPORT_REPEATS))


# -- the stream ----------------------------------------------------------------

def make_workload(name: str):
    return importlib.import_module(WORKLOADS[name]).Workload()


class Raised:
    """The answer of a question whose call raised."""

    def __init__(self, exc):
        self.exc = exc


def answer_all(workload, questions, tracer=None):
    """Answer each question in turn; returns (seconds per question,
    answers), an answer being the result or a Raised."""
    from tracer import QUESTION

    times, answers = [], []
    for i, q in enumerate(questions):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                a = workload.answer(q)
            else:
                tracer.question = i
                a = tracer.span(QUESTION, workload.answer, q)
        except Exception as e:     # recorded and counted as a failed question
            a = Raised(e)
        times.append(time.perf_counter() - t0)
        answers.append(a)
    return times, answers


def check_all(workload, questions, answers):
    """Failure messages; one per question that raised, gave a wrong verdict
    or returned something that does not re-verify."""
    failures = []
    for q, a in zip(questions, answers):
        if isinstance(a, Raised):
            failures.append(f"raised {type(a.exc).__name__}: {a.exc}")
            continue
        try:
            err = workload.check(q, a)
        except Exception as e:
            err = f"check raised {type(e).__name__}: {e}"
        if err:
            failures.append(err)
    return failures


def warm_up(workload, seed):
    rng = random.Random(f"warm-up {seed}")
    answer_all(workload, workload.round(rng, 0)[:WARMUP_QUESTIONS])


def stream(workload, rng, seconds, min_questions):
    """Whole rounds until the answers took ``seconds`` and numbered at least
    ``min_questions``.  Each round is checked as soon as it is answered,
    outside the timed region, so memory holds one round of answers."""
    times, failures, rounds = [], [], []
    check_s = 0.0
    while sum(times) < seconds or len(times) < min_questions:
        batch = workload.round(rng, len(rounds))
        t, answers = answer_all(workload, batch)
        t0 = time.perf_counter()
        failures += check_all(workload, batch, answers)
        check_s += time.perf_counter() - t0
        times += t
        rounds.append(t)
    return times, failures, check_s, rounds


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(args, workload):
    t0 = time.perf_counter()
    setup_s = setup_seconds(args.workload)
    warm_up(workload, args.seed)
    t1 = time.perf_counter()
    rng = random.Random(args.seed)
    min_q = args.questions or MIN_QUESTIONS
    seconds = 0 if args.questions else args.seconds
    times, failures, check_s, rounds = stream(workload, rng, seconds, min_q)
    ok = len(times) - len(failures)
    metrics = {
        "questions_per_s": ok / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli-sessions"),
    }
    extra = {"fail_ratio": len(failures) / len(times), "latency_samples": len(times),
             "stream_s": sum(times), "check_s": check_s,
             "wall_s": time.perf_counter() - t0, "setup_wall_s": t1 - t0,
             "question_s_by_round": rounds}
    return metrics, len(times), failures, extra


def run_traced(args, workload):
    from scalars import micro_timings
    from tracer import Tracer, install_layers

    rng = random.Random(args.seed)
    rounds = 1 if args.questions else workload.trace_rounds
    questions = [q for i in range(rounds) for q in workload.round(rng, i)]
    if args.questions:
        questions = questions[:args.questions]
    if args.workload == "cli-sessions":
        workload.in_process = True

    answer_all(workload, questions)     # lazy imports and caches settle here
    plain, _ = answer_all(workload, questions)
    tracer = Tracer(importers=[sys.modules[type(workload).__module__]])
    install_layers(tracer)
    try:
        traced, answers = answer_all(workload, questions, tracer)
    finally:
        tracer.uninstall()
    failures = check_all(workload, questions, answers)

    summary = tracer.summary()
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, key = source.split()
        table = {"incl": summary["inclusive_s"], "calls": summary["calls"],
                 "self": summary["self_s"], "count": tracer.counts}[kind]
        metrics[name] = table.get(key, 0)
    metrics.update(micro_timings(random.Random(args.seed)))
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.overhead_ratio"] = sum(plain) / sum(traced)
    metrics["trace.coverage"] = summary["coverage"]

    layers = {k: v for k, v in summary["self_s"].items() if k != "bench"}
    total = summary["question_s"]
    shares = sorted(([k, v / total] for k, v in layers.items()), key=lambda kv: -kv[1])
    extra = {"fail_ratio": len(failures) / len(questions),
             "self_time_share": shares,     # [layer, share], largest first
             "spans": summary["spans"], "question_s": total}
    os.makedirs(args.out, exist_ok=True)
    tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.txt"))
    return metrics, len(questions), failures, extra


def run_each(args) -> int:
    """Run every workload in its own process with the same options and
    print their metric lines; the exit code is the worst of theirs."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--questions", str(args.questions),
                "--out", args.out]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--questions", type=int, default=0,
                   help="smoke-test size: whole rounds until this many questions, "
                        "with no time floor (traced: exactly this many)")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench-results"),
                   help="directory for result and span files")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_germ()
    if args.workload == "all":
        return run_each(args)
    sys.path.insert(0, HERE)
    workload = make_workload(args.workload)
    if args.setup_probe:
        return 0

    run = run_traced if args.trace else run_untraced
    metrics, attempted, failures, extra = run(args, workload)
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, meta=metadata(args), extra=extra, failures=failures[:20])
    os.makedirs(args.out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {extra['fail_ratio']:.6g} "
          f"({len(failures)}/{attempted})")
    if "latency_samples" in extra:
        print(f"{args.workload} latency samples = {extra['latency_samples']}")
    for msg in failures[:5]:
        print(f"{args.workload} FAILED: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
