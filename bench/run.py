"""longrun benchmark: one closed-loop client, one op in flight at a time.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {paper_cli,long_pair,wide_panel} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

A run sets up its inputs several times (``setup_s`` is the median), then runs
ops back to back for ``--seconds`` and checks every op's output against the
stored references.  With ``--trace 0`` it reports the end-to-end metrics
and prints the median op time beside them; with ``--trace 1`` it runs half
the time untraced and half with spans around every public longrun function,
and reports the per-layer metrics, the untraced median among them.  The last
line of standard output is the result as JSON; the line before it records
the commit, the source hash and the Python, numpy and OpenBLAS versions.
Spans and results are also written under ``bench/out/``.

``--smoke`` runs every workload briefly in both modes and checks that every
metric named in ``BENCHMARK.json`` is emitted with its unit.

BLAS and OpenMP are pinned to one thread here, before numpy is imported, and
the CLI subprocesses inherit the same setting.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3


def _use_checkout_source():
    """Import longrun from this checkout's ``src``, and nothing else."""
    if not (SRC / "longrun" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no longrun package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


class Phase:
    """Wall times and outputs of the ops run back to back in one timed phase."""

    def __init__(self):
        self.walls_ns = []
        self.outputs = []  # (pool seed, output or exception)
        self.elapsed_ns = 0


def _attempt(workload, entry, tracer=None, op_id=None):
    """Run one op; an op that raises is a failed op, and the run goes on."""
    try:
        if tracer is None:
            return workload.run_op(entry)
        with tracer.op(op_id):
            return workload.run_op(entry, tracer)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def _run_phase(workload, entries, seconds, tracer=None):
    phase = Phase()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        pool_seed, entry = entries[i % len(entries)]
        t0 = time.perf_counter_ns()
        output = _attempt(workload, entry, tracer, i)
        t1 = time.perf_counter_ns()
        phase.walls_ns.append(t1 - t0)
        phase.outputs.append((pool_seed, output))
        i += 1
        if t1 >= deadline:
            break
    phase.elapsed_ns = t1 - start
    return phase


def _setup(workload, seed, workdir, reps):
    """Generate and write the run's inputs and warm up, ``reps`` times."""
    times, warmups = [], []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        entries = [(s, workload.make_input(s, workdir)) for s in workload.choose(seed)]
        pool_seed, entry = entries[0]
        warmups.append((pool_seed, _attempt(workload, entry)))
        times.append(time.perf_counter() - t0)
    return entries, statistics.median(times), warmups


def _count_failures(workload, outputs, refs):
    failed = 0
    for pool_seed, output in outputs:
        problem = (f"{type(output).__name__}: {output}" if isinstance(output, Exception)
                   else workload.compare(output, refs[pool_seed]))
        if problem:
            failed += 1
            if failed <= 3:
                sys.stderr.write(f"bench: {workload.name} input {pool_seed}: {problem}\n")
    return failed


def _p50_ms(phase):
    return statistics.median(phase.walls_ns) / 1e6


def run(workload_name, seed, seconds, trace, setup_reps=SETUP_REPS):
    """One benchmark run; returns the result, its environment and the metrics to print."""
    from workloads import WORKLOADS  # imports longrun, so only after _use_checkout_source

    workload = WORKLOADS[workload_name]
    refs = workload.load_refs()
    workdir = OUT / f"work-{workload_name}-{os.getpid()}"
    try:
        entries, setup_s, outputs = _setup(workload, seed, workdir, setup_reps)
        if trace:
            plain = _run_phase(workload, entries, seconds / 2)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = _run_phase(workload, entries, seconds / 2, tracer)
            phases = [plain, traced]
        else:
            phases = [_run_phase(workload, entries, seconds)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for phase in phases:
        outputs += phase.outputs
    failed = _count_failures(workload, outputs, refs)
    attempted = len(outputs)

    if trace:
        layer, coverage = spans.per_layer_metrics(tracer.spans)
        layer["report_ms.p50"] = (_p50_ms(plain), "ms")
        layer["trace.overhead_ms"] = (_p50_ms(traced) - _p50_ms(plain), "ms")
        layer["trace.span_coverage_min"] = (coverage, "ratio")
        metrics = shown = layer
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        (phase,) = phases
        walls_ms = [w / 1e6 for w in phase.walls_ns]
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "report_ms.p90": (statistics.quantiles(walls_ms, n=10)[-1]
                              if len(walls_ms) > 1 else walls_ms[0], "ms"),
            "reports_per_s": (len(walls_ms) / (phase.elapsed_ns / 1e9), "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": ((self_kb + child_kb) / 1024, "MB"),
        }
        # The median is printed but left out of the result: on a host whose speed
        # switches between levels every few seconds it lands on whichever level
        # held the larger share of a run, so it is too unsteady to gate on.  The
        # traced run reports it as a per-layer metric.
        shown = {"report_ms.p50": (statistics.median(walls_ms), "ms"), **metrics}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    timed = sum(len(p.walls_ns) for p in phases)
    env = _environment(workload_name, seed, seconds, trace, timed)
    return result, env, shown


def _commit():
    """HEAD of the checkout's git repository, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(workload_name, seed, seconds, trace, timed_ops):
    digest = hashlib.sha256()
    for path in sorted((SRC / "longrun").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timed_ops": timed_ops,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _expected_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def smoke():
    """Run every workload briefly in both modes; check names, units and correctness."""
    workloads, end_to_end, per_layer = _expected_metrics()
    problems = []
    for name in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result, _, _ = run(name, seed=1, seconds=0.5, trace=trace, setup_reps=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
                problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}, "
                                f"unit differs {units}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper_cli", "long_pair", "wide_panel"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    result, env, shown = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, **result}) + "\n")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
