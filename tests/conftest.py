"""Session setup shared by the test modules.

On a failing test, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` from inside its report hook. That module
imports libcst, which raises a ``DeprecationWarning`` (from
``mypy_extensions``) on import, and ``filterwarnings = ["error"]`` turns it
into an error in the hook, which aborts the whole session. Importing the
module once here, with that warning ignored, lets a failure be reported as
one. Without libcst the plugin does not import it either.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
