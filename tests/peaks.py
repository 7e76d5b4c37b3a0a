"""Peak memory of a call, as ``tracemalloc`` sees it."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``tracemalloc`` sees allocated during ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
