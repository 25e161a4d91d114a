"""Hypothesis draws the same examples whatever the package's source holds.

Hypothesis 6.155 mixes the literal constants of every loaded local module
(``providers._get_local_constants``) into the examples it draws, so an edit
of any literal under ``src/`` would change which examples the derandomized
property tests in ``test_batched.py`` and ``test_properties.py`` run.  This
hook hands hypothesis one frozen pool instead: the integers and floats the
package's source held when it was pinned.  No property test draws strings
or bytes, so those pools are empty.  ``test_properties.py`` checks that
hypothesis still calls the hook.
"""

from hypothesis.internal.conjecture import providers

PINNED_CONSTANTS = providers.Constants(
    integers=providers.SortedSet([256, 600]),
    floats=providers.SortedSet(
        [-1.0, -1e-12, 0.0, 1e-300, 1e-12, 1e-08, 1e-06, 0.0001, 0.001, 0.01,
         0.015, 0.02, 0.03, 0.05, 0.07, 0.1, 0.15, 0.45, 0.5, 0.6, 0.7, 0.85,
         0.9, 0.95, 0.97, 0.999, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 30.0,
         100.0, 120.0, 840.0, 5040.0],
        key=providers.float_to_int),
    bytes=providers.SortedSet(),
    strings=providers.SortedSet())


def pinned_local_constants():
    """The pool in place of the constants of the loaded local modules."""
    pinned_local_constants.calls += 1
    return PINNED_CONSTANTS


pinned_local_constants.calls = 0
providers._get_local_constants = pinned_local_constants
