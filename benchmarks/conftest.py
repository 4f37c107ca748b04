"""Shared helper for the host-timing benches.

Each bench times one mechanism on this host -- the cycle kernel, trace
replay, the sweep backends, observability overhead -- and asserts its
own equivalence and speedup floors.  The paper's claims are checked by
``python -m repro experiment NAME... --out DIR`` (``DIR/claims.txt``,
see ``repro.experiments.claims``), not here.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
