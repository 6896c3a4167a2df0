import pytest

from octantheat import engine


@pytest.fixture
def stage_orders(monkeypatch):
    """Spy on the engine's stage kernel: a list that gets, per call, the
    series order r of the stage (v^{*r}; each iterate's first stage,
    v * v, is order 2) and whether the product is nonzero."""
    orders, kernel = [], engine.convolve_frames

    def spy(*args):
        out = kernel(*args)
        orders.append((2 if args[0] is args[1] else orders[-1][0] + 1, bool(out.any())))
        return out

    monkeypatch.setattr(engine, "convolve_frames", spy)
    return orders
