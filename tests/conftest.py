"""Set-up for the test session.

When a Hypothesis test fails, Hypothesis imports ``hypothesis.extra._patching``
to print its explicit-example patch, and that module imports libcst, whose
import raises mypy_extensions' DeprecationWarning for ``TypedDict``.  Under
``-W error::DeprecationWarning``, the flag the suite runs with, that warning
turned the report of the falsifying example into an internal error and
stopped the run.  The module is imported here once with DeprecationWarning
ignored for that import alone; the flag stays in force for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst, so Hypothesis cannot import it either
        pass
