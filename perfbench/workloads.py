"""The benchmark's workloads: set-up, the measured loop and output checks.

Every workload is a closed loop with one client in one process.  Its
inputs come from the benchmark seed only; hypalign receives the generated
corpus and config.  Measured calls go through hypalign's public functions
(``trainer.train`` and ``cli.run_cli``); the step latency comes from a
timing shim on ``trainer.step``, installed the same way as the tracer's.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from speed import time_reference
from tracer import Patches

#: A training run or CLI cycle is repeated at least this often, so the
#: repeat-determinism check always has two outputs to compare.
MIN_REPEATS = 2


@dataclass(frozen=True)
class Training:
    """``trainer.train`` for a fixed number of steps, one held-out eval at
    the end; the criterion-5 corpus (rho 0.326, 4x3 leaves, 60 scenes)."""

    objective: str
    categories: int = 4
    leaves_per_category: int = 3
    scenes: int = 60
    rho: float = 0.326
    batch: int = 16
    d: int = 16
    steps: int = 150
    lr: float = 0.03


@dataclass(frozen=True)
class CliArtifacts:
    """``cli.run_cli`` repeating gen-corpus -> noise-metric -> eval ->
    export-embeddings against a hyper state trained briefly in set-up."""

    categories: int = 5
    leaves_per_category: int = 10
    scenes: int = 100
    rho: float = 0.326
    state_scenes: int = 60
    state_steps: int = 20


WORKLOADS = {
    "hyper-noisy": Training("hyper"),
    "det-noisy": Training("det-only"),
    "cli-artifacts": CliArtifacts(),
}


class Outcome:
    """What one measured run attempted, what failed, and what it timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.checks: dict = {}      # name -> [passed, failed]
        self.op_ms: list = []       # latency of the workload's unit operation
        self.op_ref: list = []      # index of the reference sample after it
        self.call_ms: list = []     # every timed call that busy_s holds
        self.call_ref: list = []    # index of the reference sample after it
        self.ref_ms: list = []      # reference loop times, in order
        self.ops = 0                # operations completed without failure
        self.busy_s = 0.0           # wall time inside the measured calls
        self.repeats = 0            # training runs or CLI cycles completed
        self.report: dict = {}      # workload-specific metrics, by name
        self.digest = None
        self.peak_rss_mb = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        counts = self.checks.setdefault(name, [0, 0])
        counts[0 if ok else 1] += 1
        if not ok:
            self.fail(f"check {name} failed: {detail}")
        return ok


#: Percentiles a latency tail is reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples) -> tuple:
    """(value, percentile): the highest of ``TAIL_PERCENTILES`` with at
    least ten samples beyond it (nearest rank); the maximum, as percentile
    100, when there are fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = -(-round(pct * 10) * n // 1000)   # 1-based nearest rank
        if n - rank >= 10:
            return xs[rank - 1], pct
    return xs[-1], 100.0


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# training workloads


def setup_training(spec: Training, seed: int, workdir: str) -> dict:
    from hypalign.trainer import ExperimentConfig, default_corpus

    config = ExperimentConfig(
        objective=spec.objective, d=spec.d, batch=spec.batch,
        steps=spec.steps, lr=spec.lr, rho=spec.rho, seed=seed,
        scenes=spec.scenes, categories=spec.categories,
        leaves_per_category=spec.leaves_per_category,
        eval_every=spec.steps)
    tree, synonyms, records, _ = default_corpus(config)
    return {"config": config, "tree": tree, "synonyms": synonyms,
            "records": records, "workdir": workdir}


def _step_timer(out: Outcome):
    """Wrap ``trainer.step``: time each call, check its loss is finite and
    time the reference loop after it."""
    from hypalign import trainer

    original = trainer.step

    def timed_step(state, records):
        # an exception ends the training run and is counted there, once
        out.attempted += 1
        t = time.perf_counter()
        result = original(state, records)
        ms = (time.perf_counter() - t) * 1e3
        out.op_ms.append(ms)
        out.call_ms.append(ms)
        out.op_ref.append(len(out.ref_ms))
        out.call_ref.append(len(out.ref_ms))
        out.ref_ms.append(time_reference())
        total = result[1].values()["total"]
        if math.isfinite(total):
            out.ops += 1
        else:
            out.fail(f"trainer.step returned a non-finite loss {total!r}")
        return result

    patches = Patches()
    patches.replace(original, timed_step)
    return patches


def measure_training(ctx: dict, seconds: float, out: Outcome) -> None:
    """Repeat the same training run until the next one would end past the
    deadline.  Each run writes metrics and state as ``hypalign train`` does;
    all runs must write identical bytes."""
    from hypalign import trainer

    config = ctx["config"]
    metrics_path = os.path.join(ctx["workdir"], "metrics.jsonl")
    state_path = os.path.join(ctx["workdir"], "state.json")
    patches = _step_timer(out)
    try:
        deadline = time.perf_counter() + seconds
        last_run_s = 0.0
        while (out.repeats < MIN_REPEATS
               or time.perf_counter() + last_run_s <= deadline):
            t = time.perf_counter()
            try:
                state, metrics = trainer.train(
                    config, records=ctx["records"], tree=ctx["tree"],
                    synonyms=ctx["synonyms"])
            except Exception as exc:
                out.fail(f"trainer.train raised {type(exc).__name__}: {exc}")
                break
            last_run_s = time.perf_counter() - t
            out.busy_s += last_run_s
            out.repeats += 1
            with open(metrics_path, "w", encoding="utf-8") as fh:
                for record in metrics:
                    fh.write(record.to_json() + "\n")
            trainer.save_state(state_path, state)
            _check_training_run(out, metrics[-1],
                                _sha(_read(metrics_path), _read(state_path)))
    finally:
        patches.restore()
        # the reference loops ran inside trainer.train
        out.busy_s -= sum(out.ref_ms) / 1e3


def _check_training_run(out: Outcome, last, digest: str) -> None:
    out.check("losses_finite", all(math.isfinite(x) for x in (
        last.bbox, last.cls, last.cap, last.entail, last.total)),
        f"final losses {last}")
    out.check("recall_in_range", 0.0 <= last.recall_at_1 <= 1.0,
              f"recall_at_1={last.recall_at_1}")
    out.check("containment_in_range", 0.0 <= last.containment_rate <= 1.0,
              f"containment_rate={last.containment_rate}")
    if out.digest is None:
        out.digest = digest
        out.report["recall_at_1"] = last.recall_at_1
        out.report["containment_rate"] = last.containment_rate
    else:
        out.check("repeat_digest", digest == out.digest,
                  "a repeated training run wrote different bytes")


# ---------------------------------------------------------------------------
# CLI workload


def setup_cli(spec: CliArtifacts, seed: int, workdir: str) -> dict:
    from hypalign import trainer
    from hypalign.trainer import ExperimentConfig, default_corpus

    config = ExperimentConfig(
        objective="hyper", categories=spec.categories,
        leaves_per_category=spec.leaves_per_category,
        scenes=spec.state_scenes, rho=spec.rho, seed=seed,
        steps=spec.state_steps, eval_every=spec.state_steps)
    tree, synonyms, records, _ = default_corpus(config)
    state, _ = trainer.train(config, records=records, tree=tree,
                             synonyms=synonyms)
    paths = {name: os.path.join(workdir, name) for name in
             ("corpus.jsonl", "synonyms.json", "meta.json", "state.json",
              "embeddings.jsonl")}
    trainer.save_state(paths["state.json"], state)
    common = ["--corpus-path", paths["corpus.jsonl"],
              "--synonyms-path", paths["synonyms.json"],
              "--meta-path", paths["meta.json"]]
    state_flag = ["--state-path", paths["state.json"]]
    commands = [
        ("gen-corpus", ["gen-corpus", "--categories", str(spec.categories),
                        "--leaves-per-category",
                        str(spec.leaves_per_category),
                        "--scenes", str(spec.scenes), "--rho", str(spec.rho),
                        "--seed", str(seed)] + common),
        ("noise-metric", ["noise-metric"] + common),
        ("eval", ["eval"] + state_flag + common),
        ("export-embeddings", ["export-embeddings"] + state_flag
         + ["--export-path", paths["embeddings.jsonl"]] + common),
    ]
    return {"paths": paths, "commands": commands, "workdir": workdir,
            "leaves": len(tree.leaves())}


def measure_cli(ctx: dict, seconds: float, out: Outcome,
                tracer=None) -> None:
    """Repeat the four-command cycle until the next one would end past the
    deadline.  Every cycle must print and write identical bytes."""
    from hypalign import cli

    times = {name: [] for name, _ in ctx["commands"]}
    records = rows = 0
    deadline = time.perf_counter() + seconds
    last_cycle_s = 0.0
    while (out.repeats < MIN_REPEATS
           or time.perf_counter() + last_cycle_s <= deadline):
        printed = {}
        cycle_s = 0.0
        for name, argv in ctx["commands"]:
            buf = io.StringIO()
            out.attempted += 1
            token = tracer.open(f"cli.{name}") if tracer else None
            t = time.perf_counter()
            with redirect_stdout(buf):
                code = cli.run_cli(argv)
            dt = time.perf_counter() - t
            if tracer:
                tracer.close(token, code == 0)
            if name == "eval":
                out.op_ref.append(len(out.ref_ms))
            out.call_ms.append(dt * 1e3)
            out.call_ref.append(len(out.ref_ms))
            out.ref_ms.append(time_reference())
            cycle_s += dt
            times[name].append(dt)
            printed[name] = buf.getvalue()
            if code != 0:
                out.fail(f"{name} exited with code {code}")
                return
            out.ops += 1
        out.busy_s += cycle_s
        last_cycle_s = cycle_s
        out.repeats += 1
        out.op_ms.append(times["eval"][-1] * 1e3)
        try:
            n_records = _check_cycle(out, ctx, printed)
        except (ValueError, KeyError) as exc:
            out.check("cli_output_parses", False,
                      f"{type(exc).__name__}: {exc}")
            return
        records += n_records
        rows += n_records + ctx["leaves"]
        if out.failed:
            return
    out.report["corpus_records_per_s"] = records / sum(times["gen-corpus"])
    out.report["export_rows_per_s"] = rows / sum(times["export-embeddings"])


def _check_cycle(out: Outcome, ctx: dict, printed: dict) -> int:
    """Check one cycle's outputs; returns the corpus record count."""
    paths = ctx["paths"]
    gen = json.loads(printed["gen-corpus"])
    records = int(gen["records"])
    evaluated = json.loads(printed["eval"])
    exported = json.loads(printed["export-embeddings"])
    with open(paths["embeddings.jsonl"], "rb") as fh:
        export_lines = fh.read().count(b"\n")
    expected = ctx["leaves"] + records
    out.check("export_rows", exported["rows"] == expected == export_lines,
              f"rows={exported['rows']} lines={export_lines} "
              f"expected leaves+records={expected}")
    recall = evaluated["recall_at_1"]
    out.check("recall_in_range", 0.0 <= recall <= 1.0,
              f"recall_at_1={recall}")
    # printed paths name the per-run work directory; digests must not
    stdout = "\n".join(printed[k] for k in sorted(printed)).replace(
        ctx["workdir"], "<work>").encode("utf-8")
    digest = _sha(stdout, *(_read(paths[k]) for k in (
        "corpus.jsonl", "synonyms.json", "meta.json", "embeddings.jsonl")))
    if out.digest is None:
        out.digest = digest
        out.report["recall_at_1"] = recall
        out.report["containment_rate"] = evaluated["containment_rate"]
    else:
        out.check("repeat_digest", digest == out.digest,
                  "a repeated CLI cycle printed or wrote different bytes")
    return records


def check_cli_recall(ctx: dict, out: Outcome) -> None:
    """The recall ``eval`` printed must equal an in-process
    ``evaluate_retrieval`` on the same state and held-out split."""
    from hypalign import datasynth, trainer

    paths = ctx["paths"]
    state = trainer.load_state(paths["state.json"])
    _, held = trainer.split_records(datasynth.read_corpus(
        paths["corpus.jsonl"]))
    recall = trainer.evaluate_retrieval(state, held)
    printed = out.report.get("recall_at_1")
    out.check("eval_matches_in_process", recall == printed,
              f"eval printed {printed}, evaluate_retrieval gives {recall}")


def median(xs) -> float:
    return float(statistics.median(xs))
