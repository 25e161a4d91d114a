"""hypalign benchmark: end-to-end and per-layer numbers for three workloads.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload hyper-noisy --seed 0 --seconds 30 --trace 0

prints a ``REPORT {...}`` line with every metric, check and the environment,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

All workloads, each untraced and then traced in its own process::

    python3 perfbench/run.py [--seed 0] [--seconds 30]

prints every metric by name with its unit and sample count, the tracing
overhead, the node-count cross-check and whether traced and untraced runs
wrote identical outputs.  Run from the repository root; hypalign is
imported from ``src/`` next to this directory.
"""

import os
import sys
import time

T0 = time.perf_counter()

#: One client, one thread: BLAS and OpenMP pools are pinned before numpy
#: is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, median, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"

DEFAULT_SECONDS = 30
#: Set-ups timed per untraced run (this process plus fresh interpreters);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Reference loops timed after each set-up to scale it to nominal speed.
SETUP_REFS = 11
CHILD_TIMEOUT_S = 170

#: (name, unit) of the end-to-end metrics every workload reports.  The
#: unit operation is one ``trainer.step`` call on the training workloads
#: and one CLI command on cli-artifacts, whose latency is the ``eval``
#: command's.  The timings are normalised to a nominal host speed
#: (``speed.py``); the report also gives them as measured, under the
#: workload's own names.
E2E_METRICS = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ROADMAP baseline for one batch-16 hyper step.
BASELINE_HYPER_NODES = 10747
BASELINE_PAIRWISE_SHARE = 0.79


def import_hypalign():
    """Import hypalign from ``src/`` beside the benchmark, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypalign

    origin = Path(hypalign.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"hypalign was imported from {origin}, not {src}")
    return hypalign


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
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
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def _metric(value, unit, n=None, note=None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    if note:
        out["note"] = note
    return out


def _latency(prefix: str, samples: list, note: str = "") -> dict:
    value, pct = tail(samples)
    return {
        f"{prefix}.p50": _metric(median(samples), "ms", len(samples), note),
        f"{prefix}.tail": _metric(value, "ms", len(samples),
                                  f"p{pct:.2f} of {len(samples)} {note}"
                                  .strip()),
    }


def report_metrics(name: str, out: Outcome, setup_samples: list) -> dict:
    """Every end-to-end metric the workload defines, by its own name."""
    training = isinstance(WORKLOADS[name], workloads.Training)
    m = {"setup_s": _metric(median(setup_samples), "s", len(setup_samples))}
    if out.op_ms and out.busy_s > 0:
        if training:
            m["train_steps_per_s"] = _metric(out.ops / out.busy_s, "1/s",
                                             out.ops)
            m.update(_latency("step_ms", out.op_ms))
        else:
            m.update(_latency("eval_ms", out.op_ms))
            for key, unit in (("corpus_records_per_s", "1/s"),
                              ("export_rows_per_s", "1/s")):
                if key in out.report:
                    m[key] = _metric(out.report[key], unit, out.repeats)
        # the bounded timings, at the nominal host speed (see speed.py)
        busy_s = speed.nominal_busy_s(out.busy_s, out.call_ms, out.call_ref,
                                      out.ref_ms)
        m["ops_per_s"] = _metric(out.ops / busy_s, "1/s", out.ops,
                                 "at nominal host speed")
        m.update(_latency("op_ms", speed.nominal_ms(
            out.op_ms, out.op_ref, out.ref_ms), "at nominal host speed"))
        m["ref_ms.p50"] = _metric(median(out.ref_ms), "ms", len(out.ref_ms),
                                  f"nominal {speed.NOMINAL_REF_MS} ms")
    if "recall_at_1" in out.report:
        m["recall_at_1"] = _metric(out.report["recall_at_1"], "ratio", 1)
    if name == "hyper-noisy" and "containment_rate" in out.report:
        m["containment_rate"] = _metric(out.report["containment_rate"],
                                        "ratio", 1)
    m["peak_rss_mb"] = _metric(out.peak_rss_mb, "MB", 1)
    m["error_rate"] = _metric(out.failed / max(out.attempted, 1), "ratio",
                              out.attempted)
    return m


def cross_check(name: str, tracer: Tracer, layer: dict) -> list:
    """Compare the traced run with the ROADMAP baseline and the workloads'
    design; mismatches are reported, never corrected."""
    def value(metric):
        return layer[metric]["value"]

    rows = []
    pairs = tracer.steps_self_nodes_check()
    if pairs:
        # each step's self-node sum must equal its tape, and the tapes must
        # add up to what backward saw on entry
        matched = sum(a == b for a, b in pairs)
        seen = tracer.counters["autodiff.backward.nodes"]
        rows.append({"check": "self nodes of a step's spans sum to its tape",
                     "expected": "all steps", "steps": len(pairs),
                     "observed": f"{matched} of {len(pairs)} steps",
                     "ok": matched == len(pairs)
                     and sum(a for a, _ in pairs) == seen})
    if name == "hyper-noisy":
        nodes = value("autodiff.backward.nodes")
        rows.append({"check": "tape nodes per hyper step", "baseline": True,
                     "expected": BASELINE_HYPER_NODES, "observed": nodes,
                     "ok": abs(nodes / BASELINE_HYPER_NODES - 1) <= 0.10})
        # the baseline counts the lifts the trainer makes for the
        # entailment loss as part of that loss
        lifts = tracer.nodes_under("geometry.exp_map_origin", "trainer.step")
        pairwise = (value("objectives.hyperbolic_contrastive_loss.nodes")
                    + value("objectives.entailment_loss.nodes")
                    + lifts / len(pairs))
        share = pairwise / nodes if nodes else 0.0
        rows.append({"check": "pairwise-loss share of step tape nodes",
                     "baseline": True, "expected": BASELINE_PAIRWISE_SHARE, "observed": share,
                     "ok": abs(share - BASELINE_PAIRWISE_SHARE) <= 0.03})
    if name == "det-noisy":
        # the held-out eval still lifts plain arrays; steps must not
        calls = tracer.calls_within("geometry.", "trainer.step")
        rows.append({"check": "geometry calls inside det-only steps",
                     "expected": 0, "observed": calls, "ok": calls == 0})
    if name == "cli-artifacts":
        nodes = sum(tracer.nodes)
        rows.append({"check": "tapes built and nodes recorded",
                     "expected": [0, 0],
                     "observed": [tracer.tapes_built, nodes],
                     "ok": tracer.tapes_built == 0 and nodes == 0})
    return rows


def setup_children(args) -> list:
    """Time set-up in fresh interpreters; returns seconds per child."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec=None, start: float = T0, setup_only: bool = False,
                 spans_path=None):
    """Set up, measure and check one workload in this process.

    Returns ``(report, outcome, setup_s)``, with ``setup_s`` at nominal
    host speed; ``report`` and ``outcome`` are None with ``setup_only``.
    ``spec`` overrides the workload's sizes (tests use smaller ones).
    """
    spec = spec or WORKLOADS[name]
    training = isinstance(spec, workloads.Training)
    seed = seed % 2**32
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        setup = workloads.setup_training if training else workloads.setup_cli
        ctx = setup(spec, seed, workdir)
        setup_wall_s = time.perf_counter() - start
        setup_s = setup_wall_s * speed.run_scale(
            [speed.time_reference() for _ in range(SETUP_REFS)])
        if setup_only:
            return None, None, setup_s
        out = Outcome()
        tracer = Tracer() if trace else None
        report = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "env": environment(),
                  "setup_wall_s": setup_wall_s}
        if tracer:
            tracer.install()
        try:
            if training:
                workloads.measure_training(ctx, seconds, out)
            else:
                workloads.measure_cli(ctx, seconds, out, tracer)
            if tracer:
                layer = tracer.layer_metrics(out.ops)
                report["layer"] = layer
                report["cross_check"] = cross_check(name, tracer, layer)
                path = spans_path or (SPANS_DIR /
                                      f"spans-{name}-seed{seed}.jsonl.gz")
                report["spans"] = {"path": str(path),
                                   "count": tracer.write(path)}
        finally:
            if tracer:
                tracer.close_all()
        out.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if not training and not out.failed:
            workloads.check_cli_recall(ctx, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report, out, setup_s


def finish(name, report, out, setup_samples, trace) -> dict:
    """Fill in the report and build the contract's result object."""
    m = report_metrics(name, out, setup_samples)
    report.update(metrics=m, checks=out.checks, errors=out.errors,
                  digest=out.digest, attempted=out.attempted,
                  failed=out.failed, setup_samples=setup_samples)
    report["env"]["loadavg_end"] = list(os.getloadavg())
    if trace:
        metrics = report["layer"]
    else:
        metrics = {key: {"value": m[key]["value"], "unit": unit}
                   for key, unit in E2E_METRICS if key in m}
    correct = out.failed == 0 and out.ops > 0 and (
        bool(trace) or len(metrics) == len(E2E_METRICS))
    return {"correct": correct, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def main_one(args) -> int:
    try:
        import_hypalign()
    except ImportError as exc:
        print(f"perfbench: cannot import hypalign from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, _, setup_s = run_workload(args.workload, args.seed, 0, False,
                                     setup_only=True)
        print(repr(setup_s))
        return 0
    report, out, setup_s = run_workload(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    setup_samples = [setup_s]
    if not args.trace:
        try:
            setup_samples += setup_children(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            out.check("setup_children", False, str(exc))
    result = finish(args.workload, report, out, setup_samples, args.trace)
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# all workloads, untraced then traced, each in its own process


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S + 60)
    lines = proc.stdout.splitlines()
    reports = [ln[7:] for ln in lines if ln.startswith("REPORT ")]
    if proc.returncode != 0 or not reports:
        raise RuntimeError(f"{workload} (trace {trace}) failed with code "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(reports[-1])
    report["result"] = json.loads(lines[-1])
    return report


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def print_report(plain: dict, traced: dict) -> bool:
    name = plain["workload"]
    ok = plain["result"]["correct"] and traced["result"]["correct"]
    print(f"\n== {name} (seed {plain['seed']}, {plain['seconds']} s, "
          f"correct={plain['result']['correct']})")
    for key, m in sorted(plain["metrics"].items()):
        gated = "*" if key in dict(E2E_METRICS) else " "
        extra = f"  n={m.get('n')}" + (f"  {m['note']}" if "note" in m
                                       else "")
        print(f" {gated} {key:<22} {_fmt(m['value']):>12} {m['unit']:<6}"
              f"{extra}")
    print(f"   checks: " + ", ".join(f"{k} {p}/{p + f}" for k, (p, f)
                                     in sorted(plain["checks"].items())))
    for err in plain["errors"] + traced["errors"]:
        print(f"   error: {err}")
    same = plain["digest"] == traced["digest"]
    ok = ok and same
    print(f"   traced run wrote identical outputs: {same}")
    for key in ("train_steps_per_s", "eval_ms.p50"):
        if key in plain["metrics"] and key in traced["metrics"]:
            a = plain["metrics"][key]["value"]
            b = traced["metrics"][key]["value"]
            print(f"   tracing overhead: {key} {_fmt(b)} traced vs "
                  f"{_fmt(a)} untraced ({100 * (b / a - 1):+.1f}%)")
    for row in traced["cross_check"]:
        flag = "ok" if row["ok"] else "MISMATCH"
        print(f"   cross-check {flag}: {row['check']}: expected "
              f"{_fmt(row['expected'])}, observed {_fmt(row['observed'])}")
    per = "step" if "step_ms.p50" in plain["metrics"] else "CLI command"
    print(f"   per-layer, traced, per {per} (spans in "
          f"{traced['spans']['path']}):")
    for key, _ in LAYER_METRICS:
        m = traced["layer"][key]
        if m["value"]:
            print(f"     {key:<48} {_fmt(m['value']):>12} {m['unit']}")
    return ok


def main_all(args) -> int:
    results = []
    for index, name in enumerate(WORKLOADS):
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        if index == 0:
            print("environment: " + json.dumps(plain["env"], sort_keys=True))
            print("* = bounded in BENCHMARK.json")
        results.append(print_report(plain, traced))
    print(f"\nall workloads correct: {all(results)}")
    return 0 if all(results) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # a terminated run still removes its work files and set-up children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.workload is None:
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
