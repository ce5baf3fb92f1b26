"""The benchmark's tracer (bench/tracing.py) reaches modlie by name: it
wraps every function in a traced module's __all__ and the methods its
METHODS table lists.  A rename under src/ that the tracer does not
follow breaks every traced benchmark run, so this guard installs the
tracer on a fresh import of modlie, runs one small traced query, and
checks that every hook took, that the hot methods recorded calls, and
that uninstall() restores the originals."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _modlie_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "modlie" or name.startswith("modlie.")}


@pytest.fixture
def bench(monkeypatch):
    """The bench's tracing and workloads modules.  load_modlie() imports
    modlie afresh, so the modules every other test imported are put back
    afterwards."""
    saved = _modlie_modules()
    monkeypatch.syspath_prepend(BENCH)
    import tracing
    import workloads
    yield tracing, workloads
    for name in _modlie_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_hooks_every_named_method_and_solve_sparse(bench):
    tracing, workloads = bench
    m = workloads.load_modlie()
    layers = vars(m)
    hooks = [(getattr(layers[layer], cls), meth)
             for layer, cls, meth in tracing.METHODS]
    hooks.append((m.linalg, "solve_sparse"))
    originals = [getattr(owner, attr) for owner, attr in hooks]

    tr = tracing.Tracer()
    tr.install(layers)
    try:
        for (owner, attr), fn in zip(hooks, originals):
            wrapped = getattr(owner, attr)
            assert wrapped is not fn, (owner, attr)
            assert wrapped.__wrapped__ is fn, (owner, attr)
        # the name bound in a caller's module is wrapped as well
        assert m.ceco.solve_sparse is m.linalg.solve_sparse
        L = m.liealg.make_sl2(5)
        res = m.ceco.cohomology_dim(L, 2, slice_=m.ceco.weight_zero_reduce(L),
                                    want_reps=True)
    finally:
        tr.uninstall()
    assert res.dim == len(res.reps) == 0
    assert tr.calls["linalg.SparseFpMatrix.kernel_basis"] > 0
    assert tr.calls["linalg.Echelon.add"] > 0
    for (owner, attr), fn in zip(hooks, originals):
        assert getattr(owner, attr) is fn, (owner, attr)
    assert m.ceco.solve_sparse is m.linalg.solve_sparse
