"""One criterion-5/6 training run, as a worker process's job.

A worker process that starts fresh imports the module of the function it
runs; this one imports only the package, where the acceptance module also
imports scipy, which takes about a second.
"""

from hypalign import datasynth as ds
from hypalign import trainer as tr


def final_metrics(fields: dict) -> tuple:
    """The last ``MetricsRecord`` of training the config of ``fields`` on
    its default corpus, and that corpus's noise percentage."""
    config = tr.ExperimentConfig(**fields)
    tree, synonyms, records, _ = tr.default_corpus(config)
    _, metrics = tr.train(config, records=records, tree=tree,
                          synonyms=synonyms)
    return metrics[-1], ds.caption_noise_metric(records, synonyms)
