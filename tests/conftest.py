import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (exhaustive large-dimension checks)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def greedy_kernel_basis(monkeypatch):
    """A switch to the loop that SparseFpMatrix.kernel_basis(modulo=E)
    replaced, as its oracle: back-substitute every kernel vector and keep
    each one that enlarges a copy of E.  Before that it checks exactly
    that E's span lies in the kernel: a vector lies there iff it is the
    combination of the kernel basis with its own free coordinates.
    Calling the fixture installs the loop and returns a list that gets,
    per call with modulo, the rank of E it checked."""
    from modlie.linalg import SparseFpMatrix, vec_add
    fast = SparseFpMatrix.kernel_basis
    checked = []

    def greedy(self, modulo=None):
        full = fast(self)
        if modulo is None:
            return full
        pivots, p = self.ech.pivots, self.p
        frees = [f for f in range(self.ncols) if f not in pivots]
        by_free = dict(zip(frees, full))
        for c, row in modulo.pivots.items():
            s = {c: 1, **row}
            comb = {}
            for f, x in s.items():
                if f in by_free:
                    comb = vec_add(comb, by_free[f], p, x)
            assert comb == s, "a vector of the modulo span is no kernel vector"
        checked.append(modulo.rank)
        grow = modulo.copy()
        return [v for v in full if grow.add(v)]

    def install():
        monkeypatch.setattr(SparseFpMatrix, "kernel_basis", greedy)
        return checked

    return install
