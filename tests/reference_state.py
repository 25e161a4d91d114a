"""The state's JSON object built in one piece, as a test reference.

``hypalign.trainer.save_state`` writes this object a piece at a time;
the checks compare its bytes with ``json_line`` of :func:`state_to_json`,
and read a state back through ``state_from_json`` without a file.
"""

from dataclasses import asdict

from hypalign.trainer import ModelState


def state_to_json(state: ModelState) -> dict:
    return {
        "config": asdict(state.config),
        "tree": state.tree.to_json(),
        "synonyms": state.synonyms.to_json(),
        "params": {k: v.tolist() for k, v in state.params.items()},
        "adam_m": {k: v.tolist() for k, v in state.adam_m.items()},
        "adam_v": {k: v.tolist() for k, v in state.adam_v.items()},
        "adam_t": state.adam_t,
    }
