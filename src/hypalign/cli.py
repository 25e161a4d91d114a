"""Command-line entry points.

Subcommands: gen-corpus, train, eval, noise-metric, sample-regions,
export-embeddings.  Flags mirror :class:`ExperimentConfig` field names in
kebab-case; ``--config`` loads a plain key=value file whose entries are
overridden by explicit flags.  Success prints machine-readable JSON to
stdout and exits 0; failures print one JSON error line to stderr and exit
nonzero (argparse errors exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .datasynth import (SCHEMA_VERSION, ConceptTree, SynonymMap, _object,
                        caption_noise_metric, grid_sample, json_bytes,
                        load_json, plain_floats, proposal_sample,
                        read_corpus, write_corpus, write_lines)
from .trainer import (ExperimentConfig, _vocab_size, check_true_objects,
                      default_corpus, embed_records, evaluate_retrieval,
                      export_embeddings, hierarchy_report, load_state,
                      save_state, split_records, train)

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags win")
    for field in dataclasses.fields(ExperimentConfig):
        if type(field.default) is bool:
            parser.add_argument(_flag(field.name), dest=field.name,
                                action="store_true", default=None)
        else:
            parser.add_argument(_flag(field.name), dest=field.name,
                                type=type(field.default), default=None)


def load_config_file(path: str) -> dict:
    """Plain key=value lines; blank lines and # comments ignored."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = type(fields[key].default)
            if kind is bool:
                if value.lower() not in _BOOL_WORDS:
                    raise ValueError(
                        f"{path}:{lineno}: {key} must be one of "
                        f"{'/'.join(_BOOL_WORDS)}, got {value!r}")
                out[key] = _BOOL_WORDS[value.lower()]
            else:
                try:
                    out[key] = kind(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key} must be {kind.__name__}, "
                        f"got {value!r}") from None
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for field in dataclasses.fields(ExperimentConfig):
        flag_value = getattr(args, field.name, None)
        if flag_value is not None:
            values[field.name] = flag_value
    return ExperimentConfig(**values)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_corpus(config: ExperimentConfig):
    records = read_corpus(config.corpus_path)
    synonyms = SynonymMap.from_json(load_json(config.synonyms_path))
    return records, synonyms


def _load_artifacts(config: ExperimentConfig, state=None):
    """Corpus, synonyms and tree.  Every id must index the embedding tables
    of ``state``, or of a model built from this tree and these synonyms, and
    true objects must be leaves of that model's tree."""
    records, synonyms = _load_corpus(config)
    meta = _object(load_json(config.meta_path), config.meta_path)
    if "tree" not in meta:
        raise ValueError(f"{config.meta_path}: tree: missing")
    tree = ConceptTree.from_json(meta["tree"])
    model_tree, model_synonyms = ((tree, synonyms) if state is None
                                  else (state.tree, state.synonyms))
    vocab = _vocab_size(model_tree, model_synonyms)
    # the first record with an id past the vocabulary, fields in order
    outside = []
    for order, field in enumerate(("tokens", "true_objects", "hallucinated")):
        ids = getattr(records, field)
        hits = np.flatnonzero(ids.rows_with(ids.values >= vocab))
        if hits.size:
            outside.append((int(hits[0]), order, field))
    if outside:
        i, _, field = min(outside)
        raise ValueError(
            f"{config.corpus_path}: record {i}: {field} id "
            f"{max(getattr(records, field).row(i))} is outside the "
            f"vocabulary of {vocab} ids")
    check_true_objects(records, model_tree.leaves(),
                       where=f"{config.corpus_path}: ")
    return records, synonyms, tree


def cmd_gen_corpus(args) -> int:
    config = build_config(args)
    tree, synonyms, records, (classes, boxes) = default_corpus(config)
    write_corpus(config.corpus_path, records)
    # ids only: no float to check
    write_lines(config.synonyms_path, [json_bytes(synonyms.to_json(), True)])
    meta = {
        "v": SCHEMA_VERSION,
        "tree": tree.to_json(),
        "seed": config.seed,
        "rho": config.rho,
        "k": config.k,
        "scenes": [
            {"scene": i,
             "objects": [{"cls": c, "box": box} for c, box in zip(cs, bs)]}
            for i, (cs, bs) in enumerate(zip(classes.tolist(),
                                             boxes.tolist()))
        ],
    }
    write_lines(config.meta_path, [json_bytes(meta, plain_floats(
        boxes).all() and plain_floats(config.rho))])
    noise = caption_noise_metric(records, synonyms)
    _emit({"records": len(records), "noise_pct": noise,
           "corpus": config.corpus_path})
    return 0


def cmd_train(args) -> int:
    config = build_config(args)
    records, synonyms, tree = _load_artifacts(config)
    state, metrics = train(config, records=records, tree=tree,
                           synonyms=synonyms)
    write_lines(config.metrics_path,
                (record.to_json().encode() for record in metrics))
    save_state(config.state_path, state)
    last = metrics[-1]
    _emit({"steps": last.step, "recall_at_1": last.recall_at_1,
           "containment_rate": last.containment_rate,
           "state": config.state_path, "metrics": config.metrics_path})
    return 0


def cmd_eval(args) -> int:
    config = build_config(args)
    state = load_state(config.state_path)
    records, _, _ = _load_artifacts(config, state)
    _, held = split_records(records)
    embedded = embed_records(state, held)
    recall = evaluate_retrieval(state, held, embedded)
    hier = hierarchy_report(state, held, embedded)
    _emit({"recall_at_1": recall,
           "containment_rate": hier.containment_rate,
           "mean_caption_norm": hier.mean_caption_norm,
           "mean_object_norm": hier.mean_object_norm,
           "held_out_pairs": len(held)})
    return 0


def cmd_noise_metric(args) -> int:
    config = build_config(args)
    records, synonyms = _load_corpus(config)
    print(caption_noise_metric(records, synonyms))
    return 0


def cmd_sample_regions(args) -> int:
    config = build_config(args)
    rng = np.random.default_rng(config.seed)
    proposals = []
    for _ in range(max(config.top_n * 3, 6)):
        x = np.sort(rng.uniform(0.0, 1.0, size=2))
        y = np.sort(rng.uniform(0.0, 1.0, size=2))
        if x[1] - x[0] < 0.05 or y[1] - y[0] < 0.05:
            continue
        proposals.append([x[0], y[0], x[1], y[1], rng.uniform()])
    sampled = proposal_sample(proposals, config.top_n,
                              config.iou_threshold)
    for *box, score in sampled.tolist():
        _emit({"set": "P", "box": box, "score": score})
    for box in grid_sample(config.k).tolist():
        _emit({"set": "G", "box": box, "score": None})
    return 0


def cmd_export_embeddings(args) -> int:
    config = build_config(args)
    state = load_state(config.state_path)
    records, _, _ = _load_artifacts(config, state)
    rows = export_embeddings(state, records, config.export_path)
    _emit({"rows": len(rows), "export": config.export_path})
    return 0


_COMMANDS = {
    "gen-corpus": (cmd_gen_corpus, "generate a synthetic caption corpus"),
    "train": (cmd_train, "train a model on a generated corpus"),
    "eval": (cmd_eval, "evaluate retrieval on the held-out split"),
    "noise-metric": (cmd_noise_metric, "print the corpus noise percentage"),
    "sample-regions": (cmd_sample_regions, "emit sampled region boxes"),
    "export-embeddings": (cmd_export_embeddings,
                          "dump embeddings for external projection"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: a parse
    leaves the parser as it was.  Each subcommand copies the config flags
    of one shared parent parser."""
    config_flags = argparse.ArgumentParser(add_help=False)
    _add_config_flags(config_flags)
    parser = argparse.ArgumentParser(
        prog="hypalign",
        description="hyperbolic vision-language alignment, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[config_flags])
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints usage; unknown flag -> 2
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one machine-readable line on stderr
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
