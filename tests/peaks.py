"""Traced peak memory of a block, for tests that bound what the code allocates."""

import tracemalloc


class Peak:
    """``with Peak() as peak:`` traces the block; ``peak.bytes`` is then its traced peak.
    Tracing stops on the way out, also when the block raises."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
