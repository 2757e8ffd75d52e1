"""flowbif benchmark: three workloads, answer checks, and a traced run.

    python3 perfbench/run.py --workload {gallery,separatrix,moved} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src/``.  One client runs one operation at a time in this process (a
closed loop).  ``--seed`` fixes the order of the operations.  The ``moved``
cases are the fixed catalogue ``moved.CATALOGUE``, so that the timed inputs
stay the same from run to run; ``moved.generate(seed)`` draws other rigid
motions.

``--trace 0`` runs whole passes until ``--seconds`` have been measured (one
pass, at today's speed), requires all passes to give byte-identical
answers, and reports the end-to-end metrics from each operation's fastest
pass.  Times are scaled to a reference host speed (hostspeed.py), because
other tenants of the host change its speed by more than 2x for seconds at a
time.  ``--trace 1`` runs one untraced pass and one traced pass, requires
both to give byte-identical answers, writes the spans of the traced pass
to ``.perfbench-out/`` (raw times) and reports the per-layer metrics, their
times scaled by the host's mean speed over that pass; its counts repeat
exactly from run to run.  The gallery
workload also runs ``classify gallery/s5.field`` once per run, in a child
process killed after ``S5_DEADLINE_S``.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import gallery  # noqa: E402
import hostspeed  # noqa: E402
import moved  # noqa: E402
import separatrix  # noqa: E402
from ops import split_answer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("gallery", "separatrix", "moved")
SETUP_PROBES = 7
# untraced runs call an operation faster than REPEAT_BELOW_S again until
# REPEAT_BUDGET_S are spent (at most REPEAT_MAX calls) and keep the median;
# traced runs call each operation once, so that their counters repeat
REPEAT_BELOW_S = 0.1
REPEAT_BUDGET_S = 0.5
REPEAT_MAX = 25
# classify s5 has not finished within 900 s, a known defect; the slowest
# other classify operation takes about 1 s.  Only the timeout is excused:
# a wrong label for s5 fails the run.
S5_DEADLINE_S = 5.0
CHILD_TIMEOUT_S = 60.0


def load_package():
    """Import flowbif from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "flowbif" / "__init__.py").is_file() or not (ROOT / "gallery").is_dir():
        raise SystemExit(f"perfbench: {ROOT} holds no flowbif source tree and gallery")
    sys.path.insert(0, str(src))
    import flowbif
    import flowbif.cli  # noqa: F401  (ops reach it as pkg.cli)

    if Path(flowbif.__file__).resolve().parent != (src / "flowbif").resolve():
        raise SystemExit(f"perfbench: imported flowbif from {flowbif.__file__}, not {src}")
    return flowbif


def build_ops(workload, pkg):
    """(operations, untimed checks to run after each pass or None)."""
    if workload == "gallery":
        return gallery.build(pkg, ROOT, OUT_DIR), None
    if workload == "separatrix":
        return separatrix.build(pkg)
    return moved.build(pkg), None


@dataclass
class Record:
    name: str
    kind: str
    seconds: float | None  # scaled to the reference host speed; None for untimed checks
    answer: str
    problem: str | None
    known_defect: bool = False
    raw_seconds: float | None = None


def run_pass(workload, pkg, seed, speed, repeat=False):
    ops, after = build_ops(workload, pkg)
    random.Random(seed).shuffle(ops)
    records = []
    for op in ops:
        token = speed.start()
        try:
            answer = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            raw, scaled = speed.stop(token)
            answer = f"raised {type(exc).__name__}: {exc}"
            records.append(Record(op.name, op.kind, scaled, answer, answer, op.known_defect, raw))
            continue
        raw, scaled = speed.stop(token)
        problem = None
        if repeat and scaled < REPEAT_BELOW_S:
            # one short call is at the mercy of the host's speed in that
            # instant; time more of them and keep the median
            times, spent = [(scaled, raw)], raw
            while spent < REPEAT_BUDGET_S and len(times) < REPEAT_MAX:
                token = speed.start()
                if op.call() != answer:
                    problem = "answers differ between calls"
                raw, scaled = speed.stop(token)
                times.append((scaled, raw))
                spent += raw
            scaled, raw = sorted(times)[len(times) // 2]
        try:
            problem = problem or op.check(answer)
        except (ValueError, IndexError, OSError) as exc:
            problem = f"unreadable answer ({exc}): {answer!r}"
        records.append(Record(op.name, op.kind, scaled, answer, problem, op.known_defect, raw))
    for name, answer, problem in after() if after else ():
        records.append(Record(name, "pair", None, answer, problem))
    return records


def run_s5():
    """classify gallery/s5.field in a child, under the deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), "s5"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=S5_DEADLINE_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        problem = f"no answer within {S5_DEADLINE_S:g} s"
        return Record("classify s5", "classify", None, "deadline", problem, known_defect=True)
    if proc.returncode != 0 or not proc.stdout.startswith("rc="):
        problem = f"child exited {proc.returncode}: {proc.stderr[-300:]!r}"
    else:
        try:
            problem = gallery.check_s5_classify(*split_answer(proc.stdout))
        except (ValueError, IndexError) as exc:
            problem = f"unreadable answer ({exc}): {proc.stdout!r}"
    return Record("classify s5", "classify", None, proc.stdout, problem)


def setup_seconds(workload):
    """Medians over fresh interpreters of importing flowbif and building
    the inputs: (raw seconds, scaled seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
        r, s = map(float, proc.stdout.split()[-2:])
        raw.append(r)
        scaled.append(s)
    return statistics.median(raw), statistics.median(scaled)


def pass_seconds(records, raw=False):
    return sum(r.raw_seconds if raw else r.seconds for r in records if r.seconds is not None)


def tail_quantile(n):
    """p90, or the highest percentile with 10 of n samples beyond it, but
    never below the median."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def environment():
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def mismatches(passes):
    """Operations whose answer differs between passes of one run."""
    first = passes[0]
    return [
        f"{r.name}: answers differ between passes"
        for i, r in enumerate(first)
        if any(p[i].answer != r.answer for p in passes[1:])
    ]


def measure(args, pkg):
    """Whole passes until ``--seconds`` are spent; each operation is timed
    at its fastest pass."""
    import numpy

    passes, spent = [], 0.0
    with hostspeed.HostSpeed() as speed:
        while not passes or spent < args.seconds:
            passes.append(run_pass(args.workload, pkg, args.seed, speed, repeat=True))
            spent += pass_seconds(passes[-1], raw=True)
    timed = [i for i, r in enumerate(passes[0]) if r.seconds is not None]
    fastest = [min(p[i].seconds for p in passes) for i in timed]
    q = tail_quantile(len(fastest))
    metrics = {
        "wall_s": (sum(fastest), "s"),
        "op_p50_s": (statistics.median(fastest), "s"),
        "op_p90_s": (float(numpy.quantile(fastest, q)), "s"),
    }
    notes = [
        f"{len(passes)} passes of {len(fastest)} timed operations; "
        "pass times " + ", ".join(f"{pass_seconds(p):.3f}" for p in passes)
        + " s scaled, " + ", ".join(f"{pass_seconds(p, raw=True):.3f}" for p in passes)
        + f" s raw; op_p90_s is p{100 * q:.0f}"
    ]
    return passes, metrics, notes, mismatches(passes)


def measure_traced(args, pkg):
    import spans

    tracer = spans.Tracer(pkg)
    with hostspeed.HostSpeed() as speed:
        reference = run_pass(args.workload, pkg, args.seed, speed)
        tracer.install()
        try:
            n0 = len(speed.samples)
            first = run_pass(args.workload, pkg, args.seed, speed)
            # span times are raw; scale them by the host's speed over the pass
            factor = hostspeed.scaled(1.0, speed.samples[n0:])
            layers = {
                k: (v * factor if unit == "s" else v, unit)
                for k, (v, unit) in spans.layer_metrics(tracer).items()
            }
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        finally:
            tracer.uninstall()
    problems = mismatches([reference, first])
    metrics = dict(layers)
    metrics["trace.overhead_s"] = (pass_seconds(first) - pass_seconds(reference), "s")
    for kind in ("classify", "bifurcate", "signature", "render"):
        metrics[f"{kind}_s"] = (sum(r.seconds for r in reference if r.kind == kind and r.seconds), "s")
    if args.workload == "gallery":
        stdout = sum(len(split_answer(r.answer)[1].encode()) for r in first if r.seconds is not None)
    else:
        stdout = 0
    metrics["cli.stdout_bytes"] = (stdout, "bytes")
    notes = [f"traced pass {pass_seconds(first):.3f} s, untraced {pass_seconds(reference):.3f} s (scaled)"]
    return [reference, first], metrics, notes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pkg = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        passes, metrics, notes, problems = measure_traced(args, pkg)
    else:
        passes, metrics, notes, problems = measure(args, pkg)
    records = [r for p in passes for r in p]
    if args.workload == "gallery":
        records.append(run_s5())
    failed = [r for r in records if r.problem]
    unexpected = [r for r in failed if not r.known_defect]
    attempted = len(records)
    if args.trace:
        metrics["fail_frac"] = (len(failed) / attempted, "ratio")
    else:
        setup_raw, setup_s = setup_seconds(args.workload)
        notes.append(f"setup {setup_raw:.4f} s raw")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    for r in {(r.name, r.problem): r for r in failed}.values():  # once per run, not per pass
        tag = "known defect" if r.known_defect else "FAILED"
        print(f"{tag}: {r.name}: {r.problem}")
    for line in problems:
        print(f"FAILED: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"{len(failed)} of {attempted} operations and checks failed")
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
