import warnings

# When a property fails, hypothesis' pytest plugin imports its patch writer,
# whose libcst import raises a DeprecationWarning. Under the suite's
# filterwarnings = ["error"] that aborts the whole session with an
# INTERNALERROR instead of reporting the failure; imported once here with the
# warning ignored, the module is already loaded when the plugin asks for it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patches
        pass
