"""The benchmark's contract with the package, checked where the package's
tests run: perfbench's tracer reads private names of ``autodiff``
(``_OP_NAMES``, each tape entry) and rebinds the package's functions, so a
change under ``src/`` that breaks a traced run fails here too."""

from pathlib import Path

from hypalign import autodiff as ad
from hypalign import trainer as tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_counts_a_hyper_step_and_restores_every_binding(
        monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    config = tr.ExperimentConfig(objective="hyper", scenes=6, batch=6)
    tree, synonyms, records, _ = tr.default_corpus(config)
    state = tr.init(config, tree, synonyms)
    originals = (ad.backward, tr.step, ad.Tape.__init__)
    traced = tracer.Tracer()
    traced.install()
    try:
        tr.step(state, records[:6])
    finally:
        traced.close_all()
    assert traced.counters["autodiff.backward.nodes"] == 36
    # no tape entry is the row index the tracer looks up for "hinge"
    assert traced.counters["autodiff.hinge.seen"] == 0
    assert traced.tapes_built == 1
    assert all(now is then for now, then in zip(
        (ad.backward, tr.step, ad.Tape.__init__), originals))
