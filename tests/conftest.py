"""Set-up for the test session.

When a Hypothesis test fails, Hypothesis imports ``hypothesis.extra._patching``
to print its explicit-example patch, and that module imports libcst, whose
import raises mypy_extensions' DeprecationWarning for ``TypedDict``.  The
suite turns DeprecationWarning into an error (``filterwarnings`` in
``pyproject.toml``, and the ``-W error::DeprecationWarning`` flag of the CI
run), and that warning then turned the report of the falsifying example
into an internal error and stopped the run.  The module is imported here
once with DeprecationWarning ignored for that import alone; the error rule
stays in force for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst, so Hypothesis cannot import it either
        pass
