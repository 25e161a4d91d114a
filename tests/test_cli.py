"""CLI behavior: subcommands, determinism, config files, exit codes."""

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hypalign import cli
from hypalign import trainer as tr
from hypalign.cli import load_config_file, run_cli
from hypalign.datasynth import read_corpus


def corpus_args(tmp_path, seed=7, rho=0.0, scenes=16):
    return [
        "--corpus", str(tmp_path / "corpus.jsonl"),
        "--synonyms", str(tmp_path / "synonyms.json"),
        "--meta", str(tmp_path / "meta.json"),
        "--categories", "3", "--leaves-per-category", "3",
        "--scenes", str(scenes), "--seed", str(seed), "--rho", str(rho),
    ]


def train_args(tmp_path):
    return corpus_args(tmp_path) + [
        "--metrics", str(tmp_path / "metrics.jsonl"),
        "--state", str(tmp_path / "state.json"),
        "--export", str(tmp_path / "embeddings.jsonl"),
        "--steps", "12", "--eval-every", "6", "--batch", "4", "--d", "16",
    ]


def flag_fix(args):
    """Expand shorthand flags used by the helpers to the real names."""
    mapping = {"--corpus": "--corpus-path", "--synonyms": "--synonyms-path",
               "--meta": "--meta-path", "--metrics": "--metrics-path",
               "--state": "--state-path", "--export": "--export-path"}
    return [mapping.get(a, a) for a in args]


def test_gen_corpus_deterministic(tmp_path, capsys):
    args = flag_fix(["gen-corpus"] + corpus_args(tmp_path))
    assert run_cli(args) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("corpus.jsonl", "synonyms.json", "meta.json")}
    out1 = capsys.readouterr().out
    assert run_cli(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob
    payload = json.loads(out1)
    assert payload["records"] > 0
    assert payload["noise_pct"] == 0.0


def test_noise_metric_prints_zero_for_clean_corpus(tmp_path, capsys):
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    capsys.readouterr()
    assert run_cli(flag_fix(["noise-metric"] + corpus_args(tmp_path))) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_noise_metric_tracks_rho(tmp_path, capsys):
    assert run_cli(flag_fix(["gen-corpus"]
                            + corpus_args(tmp_path, rho=0.4,
                                          scenes=60))) == 0
    capsys.readouterr()
    assert run_cli(flag_fix(["noise-metric"] + corpus_args(tmp_path))) == 0
    printed = float(capsys.readouterr().out.strip())
    assert 10.0 < printed < 30.0


def test_sample_regions_deterministic_and_valid(tmp_path, capsys):
    args = flag_fix(["sample-regions"] + corpus_args(tmp_path)
                    + ["--k", "2", "--top-n", "3"])
    assert run_cli(args) == 0
    out1 = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == out1
    rows = [json.loads(line) for line in out1.splitlines()]
    grid = [r for r in rows if r["set"] == "G"]
    props = [r for r in rows if r["set"] == "P"]
    assert len(grid) == 4
    assert 1 <= len(props) <= 3
    for r in rows:
        x1, y1, x2, y2 = r["box"]
        assert 0.0 <= x1 < x2 <= 1.0
        assert 0.0 <= y1 < y2 <= 1.0


def test_train_eval_and_export_round_trip(tmp_path, capsys):
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    capsys.readouterr()
    args = flag_fix(["train"] + train_args(tmp_path))
    assert run_cli(args) == 0
    train_out = json.loads(capsys.readouterr().out)
    metrics_lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert metrics_lines
    last = json.loads(metrics_lines[-1])
    assert last["step"] == 12
    assert train_out["recall_at_1"] == last["recall_at_1"]

    assert run_cli(flag_fix(["eval"] + train_args(tmp_path))) == 0
    eval_out = json.loads(capsys.readouterr().out)

    # CLI must agree with the in-process API on the same artifacts
    state = tr.load_state(tmp_path / "state.json")
    records = read_corpus(tmp_path / "corpus.jsonl")
    _, held = tr.split_records(records)
    assert eval_out["recall_at_1"] == tr.evaluate_retrieval(state, held)
    assert eval_out["held_out_pairs"] == len(held)

    assert run_cli(flag_fix(["export-embeddings"] + train_args(tmp_path))) == 0
    export_out = json.loads(capsys.readouterr().out)
    rows = [json.loads(line) for line in
            (tmp_path / "embeddings.jsonl").read_text().splitlines()]
    assert len(rows) == export_out["rows"]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"object", "caption"}


def test_full_pipeline_byte_identical_across_runs(tmp_path, capsys):
    # identical config and seed, repeated in place: every artifact must
    # come out byte-for-byte the same
    names = ("corpus.jsonl", "synonyms.json", "meta.json", "metrics.jsonl",
             "state.json", "embeddings.jsonl")
    outputs = []
    for _ in range(2):
        assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
        assert run_cli(flag_fix(["train"] + train_args(tmp_path))) == 0
        assert run_cli(flag_fix(["export-embeddings"]
                                + train_args(tmp_path))) == 0
        capsys.readouterr()
        outputs.append({name: (tmp_path / name).read_bytes()
                        for name in names})
    assert outputs[0] == outputs[1]


#: sha256 of every file and stdout the pipeline below writes or prints.  A
#: change to the corpus, metrics, state or export format, or to any number
#: in them, changes a digest; update these only for an intended change.
PINNED_DIGESTS = {
    "gen-corpus stdout":
        "79d871a3a1abe270db3573d9b95657d9338001d911b67739d8f09a4fbaab25c8",
    "noise-metric stdout":
        "53205fdaac6ff2edc78c26dc47d4bd5875508887cdde220c39cc2f1c62f7a0b9",
    "train stdout":
        "7e22b5385bf80e36cfc4d083b7c63ec6a6beb30433867a833258f57585355a92",
    "eval stdout":
        "d16a36feb02ac7159eb212c899861edcc77a497db11a4ce00f2013c48881e80b",
    "export-embeddings stdout":
        "689f2185f9358dce59a3ee4527ca59e8bd7fe6f651123d19e15fc80c08299061",
    "sample-regions stdout":
        "1a385cdedddb491aa121d52aee59488ffe631a80dc3094468c86b34c64428ea5",
    "corpus.jsonl":
        "786eb01dd4df76301df38f66f0431b6d3844469db374c8c3937b02b505fca231",
    "synonyms.json":
        "82101ee2711a364e62cdad17238df96b397b02654df2a6e5cab6f380a2a61e2c",
    "meta.json":
        "8b5db5b87ac02bff7c9387873d8d64da6ca31e90bd2657f0ace93867b449156f",
    "metrics.jsonl":
        "e60d19a5a96a4cf142cce4bc5d9f7fb467b8983658c001a3fc4a85f46b85253a",
    "state.json":
        "3ee8ce85ab8c1f7bb208942bb760fc1679879c188bbd67e91fb07e77acdda760",
    "embeddings.jsonl":
        "39bc9f9fe99d711e89bb001ab3d39a96d28c221508fd8afca7b9c7d58235fe00",
}


def test_outputs_match_pinned_digests(tmp_path, capsys):
    args = flag_fix(train_args(tmp_path))
    args[args.index("--rho") + 1] = "0.3"
    # a shortlist of 8 at threshold 0.2 makes NMS suppress 3 proposals
    extra = {"sample-regions": ["--top-n", "8", "--iou-threshold", "0.2"]}
    digests = {}
    for command in ("gen-corpus", "noise-metric", "train", "eval",
                    "export-embeddings", "sample-regions"):
        assert run_cli([command] + args + extra.get(command, [])) == 0
        digests[f"{command} stdout"] = capsys.readouterr().out.encode()
    for name in ("corpus.jsonl", "synonyms.json", "meta.json",
                 "metrics.jsonl", "state.json", "embeddings.jsonl"):
        digests[name] = (tmp_path / name).read_bytes()
    # stdout and the state's config name the per-test directory
    where = str(tmp_path).encode()
    got = {k: hashlib.sha256(v.replace(where, b"<dir>")).hexdigest()
           for k, v in digests.items()}
    assert got == PINNED_DIGESTS


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "seed=9\nscenes=16\ncategories=3\nleaves_per_category=3\n"
        f"corpus_path={tmp_path/'corpus.jsonl'}\n"
        f"synonyms_path={tmp_path/'synonyms.json'}\n"
        f"meta_path={tmp_path/'meta.json'}\n")
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(["gen-corpus", "--config", str(cfg_file)]) == 0
    out_seed9 = capsys.readouterr().out
    corpus_seed9 = corpus.read_bytes()
    # flag overrides the file's seed
    assert run_cli(["gen-corpus", "--config", str(cfg_file),
                    "--seed", "11"]) == 0
    capsys.readouterr()
    assert corpus.read_bytes() != corpus_seed9
    # regenerating with the file alone reproduces the seed-9 corpus
    assert run_cli(["gen-corpus", "--config", str(cfg_file)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out_seed9)


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run_cli(["gen-corpus", "--bogus-flag", "1"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_command_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_parser_reuse_leaks_no_flag_between_calls(tmp_path, capsys):
    args = flag_fix(["gen-corpus"] + corpus_args(tmp_path))
    seed = args.index("--seed")
    plain = args[:seed] + args[seed + 2:]
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(plain + ["--seed", "0"]) == 0
    seed0 = corpus.read_bytes()
    assert run_cli(plain + ["--seed", "11"]) == 0
    assert corpus.read_bytes() != seed0
    # no --seed: the default seed 0, not the 11 of the call before
    assert run_cli(plain) == 0
    assert corpus.read_bytes() == seed0
    # a call that fails to parse leaves nothing behind for the next one
    assert run_cli(plain + ["--bogus-flag", "1"]) == 2
    assert "usage" in capsys.readouterr().err
    assert run_cli(plain) == 0
    assert corpus.read_bytes() == seed0


def _reference_parser():
    """The parser as it was built before it was cached: every subcommand
    adds ``--config`` and one flag per config field itself."""
    parser = argparse.ArgumentParser(
        prog="hypalign",
        description="hyperbolic vision-language alignment, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text) in cli._COMMANDS.items():
        cmd = commands[name] = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="key=value config file; flags win")
        for field in dataclasses.fields(tr.ExperimentConfig):
            flag = "--" + field.name.replace("_", "-")
            if field.name == "early_stop":
                cmd.add_argument(flag, dest=field.name, action="store_true",
                                 default=None)
            else:
                cmd.add_argument(flag, dest=field.name,
                                 type=type(field.default), default=None)
    return parser, commands


def test_help_text_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    parser, commands = _reference_parser()
    assert run_cli(["--help"]) == 0
    assert capsys.readouterr().out == parser.format_help()
    for name, command in commands.items():
        assert run_cli([name, "--help"]) == 0
        assert capsys.readouterr().out == command.format_help()


def test_missing_corpus_is_machine_readable_error(tmp_path, capsys):
    assert run_cli(flag_fix(["noise-metric"] + corpus_args(tmp_path))) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err_lines[-1])
    assert "error" in payload


def test_config_file_rejects_unknown_boolean(tmp_path, capsys):
    cfg_file = tmp_path / "bool.cfg"
    cfg_file.write_text("# typo below\nearly_stop = ture\n")
    assert run_cli(["gen-corpus", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert f"{cfg_file}:2: early_stop" in payload["error"]
    for word, want in (("YES", True), ("on", True), ("0", False),
                       ("Off", False)):
        cfg_file.write_text(f"early_stop={word}\n")
        assert load_config_file(str(cfg_file)) == {"early_stop": want}


def test_bad_config_file_key_is_reported(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("not_a_field=3\n")
    assert run_cli(["gen-corpus", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "not_a_field" in payload["error"]


def test_config_file_reports_unparsable_number(tmp_path, capsys):
    cfg_file = tmp_path / "num.cfg"
    cfg_file.write_text("seed = 3\nsteps = 1.5\n")
    assert run_cli(["gen-corpus", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert f"{cfg_file}:2: steps must be int, got '1.5'" in payload["error"]
    cfg_file.write_text("lr = fast\n")
    with pytest.raises(ValueError, match=r":1: lr must be float"):
        load_config_file(str(cfg_file))


def _edit_last_record(path, field, edit):
    lines = path.read_text().splitlines()
    record = json.loads(lines[-1])
    record[field] = edit(record[field])
    lines[-1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return len(lines) - 1


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
@pytest.mark.parametrize("field", ["tokens", "true_objects"])
def test_ids_outside_the_vocabulary_are_rejected_at_load(tmp_path, capsys,
                                                         command, field):
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    assert run_cli(flag_fix(["train"] + train_args(tmp_path))) == 0
    capsys.readouterr()
    index = _edit_last_record(tmp_path / "corpus.jsonl", field,
                              lambda ids: ids + [999])
    assert run_cli(flag_fix([command] + train_args(tmp_path))) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert f"record {index}: {field} id 999" in payload["error"]


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
@pytest.mark.parametrize("edit,problem", [
    # category 2 of the 3 x 3 tree: inside the vocabulary, not a leaf
    (lambda ids: ids + [2], "true_objects [2, "),
    (lambda ids: [], "true_objects [] must be"),
], ids=["category", "empty"])
def test_true_objects_must_be_leaves_at_load(tmp_path, capsys, command,
                                            edit, problem):
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    assert run_cli(flag_fix(["train"] + train_args(tmp_path))) == 0
    capsys.readouterr()
    corpus = tmp_path / "corpus.jsonl"
    index = _edit_last_record(corpus, "true_objects", edit)
    assert run_cli(flag_fix([command] + train_args(tmp_path))) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert f"{corpus}: record {index}: {problem}" in payload["error"]


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
@pytest.mark.parametrize("field,name,bad", [
    ("params", "object_table", float("nan")),
    ("params", "token_table", float("inf")),
    ("params", "log_tau", float("nan")),
    ("adam_m", "attn_wq", float("-inf")),
    ("adam_v", "curv_raw", float("inf")),
])
def test_non_finite_state_numbers_are_rejected_at_load(tmp_path, capsys,
                                                       command, field, name,
                                                       bad):
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    assert run_cli(flag_fix(["train"] + train_args(tmp_path))) == 0
    capsys.readouterr()
    path = tmp_path / "state.json"
    state = json.loads(path.read_text())
    value = state[field][name]
    if isinstance(value, list):
        value[-1][0] = bad
    else:
        state[field][name] = bad
    # json writes the NaN and Infinity tokens that json also reads
    path.write_text(json.dumps(state))
    assert run_cli(flag_fix([command] + train_args(tmp_path))) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == (
        f"ValueError: {field}.{name}: non-finite entries")


_NOT_JSON = ("{path}: invalid JSON: Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1)")
_NOT_UTF_8 = ("{path}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
              "in position 2: invalid start byte")


@pytest.mark.parametrize("name,text,message", [
    ("state.json", "[1]", "state: expected an object, got [1]"),
    ("state.json", "{", _NOT_JSON),
    ("synonyms.json", "[1]", "synonyms: expected an object, got [1]"),
    ("synonyms.json", '{"5": 3}', "synonyms.5: expected a list, got 3"),
    ("synonyms.json", "{", _NOT_JSON),
    ("meta.json", "[1]", "{path}: expected an object, got [1]"),
    ("meta.json", '{"v": "v1"}', "{path}: tree: missing"),
    ("meta.json", '{"tree": {"root": 0, "children": [1]}}',
     "tree.children: expected an object, got [1]"),
    ("meta.json", "{", _NOT_JSON),
    pytest.param("state.json", "[" * 5000 + "]" * 5000,
                 "{path}: invalid JSON: maximum recursion depth exceeded "
                 "while decoding a JSON array from a unicode string",
                 id="state.json-5000-deep"),
    *(pytest.param(name, b'{"\xff": 1}', _NOT_UTF_8,
                   id=f"{name}-invalid-utf-8")
      for name in ("state.json", "synonyms.json", "meta.json")),
])
def test_malformed_json_files_are_named_at_load(tmp_path, capsys, name,
                                                text, message):
    # each was a TypeError, KeyError, AttributeError, JSONDecodeError or
    # UnicodeDecodeError that named neither the file nor the field
    assert run_cli(flag_fix(["gen-corpus"] + corpus_args(tmp_path))) == 0
    assert run_cli(flag_fix(["train"] + train_args(tmp_path))) == 0
    capsys.readouterr()
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli(flag_fix(["eval"] + train_args(tmp_path))) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError: " + message.format(path=path)
