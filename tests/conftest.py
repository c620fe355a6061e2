"""Settings shared by the tier-1 tests.

When a @given test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to write a patch of the failing example. Where
libcst is installed, that import raises a DeprecationWarning, and
filterwarnings = ["error"] turns it into an INTERNALERROR that ends the
session, so no later test runs. The hook below imports the module first,
with DeprecationWarning ignored, so the plugin finds it loaded. It waits
for a failure because importing libcst takes most of a second. Without
libcst the import fails here and in the plugin, which tolerates that.
"""

import warnings


def pytest_runtest_makereport(call):
    if call.excinfo is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass
