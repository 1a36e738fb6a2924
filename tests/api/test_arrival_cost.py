"""An arrival into a live session costs only its own slot.

Powers are oblivious (``p_i = f(l(u_i, v_i))``), so an arrival changes
nothing about any other request: the metric layer measures the new
link and the new slot's gain row and column (for a reused slot, one
``(1, n)`` and one ``(n, 1)`` loss block per request endpoint and
block side; an appended slot's row and column come in row-tile
strips), and the power layer resolves the new link's power alone.
These tests count the calls at those two layers around one arrival
into a live session.
"""

import numpy as np
import pytest

import repro.core.interference as interference
from repro.api import Problem
from repro.geometry.metric import Metric
from repro.instances import random_uniform_instance
from repro.power.oblivious import FunctionPower, SquareRootPower

N = 40


class _Calls:
    """Records the metric and power calls made while it is armed."""

    def __init__(self, monkeypatch, metric_type):
        self.armed = False
        self.blocks = []
        self.pairs = []
        self.losses = []
        self.forbidden = []
        calls = self

        def wrap(owner, name, record):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if calls.armed:
                    record(*args, **kwargs)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        wrap(
            Metric,
            "loss_block",
            lambda metric, rows, cols, alpha: self.blocks.append(
                (np.array(rows), np.array(cols))
            ),
        )
        wrap(
            metric_type,
            "pair_distances",
            lambda metric, us, vs: self.pairs.append(
                (np.array(us).tolist(), np.array(vs).tolist())
            ),
        )
        wrap(
            metric_type,
            "distance_matrix",
            lambda metric: self.forbidden.append("distance_matrix"),
        )
        wrap(
            interference,
            "_tiled_gain_matrix",
            lambda *args: self.forbidden.append("_tiled_gain_matrix"),
        )
        wrap(
            SquareRootPower,
            "power_of_loss",
            lambda power, loss: self.losses.append(np.array(loss)),
        )


def _live_session(backend, direction):
    # Two spare requests' endpoints stay free in the metric for arrivals.
    pool = random_uniform_instance(N + 2, rng=11, direction=direction)
    problem = Problem(pool.subset(np.arange(N)), backend=backend)
    session = problem.session()
    session.context.backend
    session.ensure_live()
    return session, pool


@pytest.mark.parametrize("direction", ["directed", "bidirectional"])
@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("slot", ["reused", "appended"])
def test_one_arrival_touches_only_its_slot(monkeypatch, backend, direction, slot):
    session, pool = _live_session(backend, direction)
    assert session.context.backend.is_lossless
    if slot == "reused":
        session.remove_requests([session.handles[7]])
    calls = _Calls(monkeypatch, type(pool.metric))
    pair = (int(pool.senders[N]), int(pool.receivers[N]))

    calls.armed = True
    handle = session.add_requests([pair])[0]
    calls.armed = False

    index = session._uid_to_index[handle.uid]
    instance = session.instance
    size = instance.n
    assert index == (7 if slot == "reused" else N)
    assert calls.forbidden == []
    assert calls.pairs == [([pair[0]], [pair[1]])]
    # The power layer saw the arriving link's loss alone.
    assert len(calls.losses) == 1
    np.testing.assert_array_equal(calls.losses[0], instance.link_losses[[index]])

    endpoints = 1 if direction == "directed" else 2
    nodes = set(pair)
    rows = [b for b in calls.blocks if b[0].size == 1 and b[1].size <= size]
    cols = [b for b in calls.blocks if b[0].size <= size and b[1].size == 1]
    # Every block is a strip of the arriving slot's row or column (no
    # full matrix)...
    assert len(rows) + len(cols) == len(calls.blocks)
    assert all(int(b[0][0]) in nodes for b in rows)
    assert all(int(b[1][0]) in nodes for b in cols)
    assert rows and cols
    if slot == "reused":
        # ...and a reused slot takes its whole row and column, at most
        # two blocks per request endpoint and block side.  (Growth
        # fills the new rows and columns in row tiles, the strips a
        # bulk append computes.)
        assert all(b[1].size == size for b in rows)
        assert all(b[0].size == size for b in cols)
        assert len(rows) <= 2 * endpoints
        assert len(cols) <= 2 * endpoints
    # And the arrival was admitted into the live schedule.
    assert session.color_of(handle) >= 0


def test_caller_function_power_is_resolved_in_full():
    """A caller's ``f`` may not be elementwise (here every power
    depends on the largest loss), so an arrival re-resolves all powers:
    the session then matches a cold one over the same instance."""
    f = FunctionPower(lambda loss: loss / loss.max(), name="relative")
    pool = random_uniform_instance(N + 2, rng=11)
    # The arrival is the longest link, so every existing power moves.
    longest = int(np.argmax(pool.link_losses))
    keep = np.array([i for i in range(N + 2) if i != longest][:N])
    session = Problem(pool.subset(keep), f).session()
    session.context.backend
    session.ensure_live()
    session.add_requests([(int(pool.senders[longest]), int(pool.receivers[longest]))])

    cold = Problem(session.instance, f).session()
    np.testing.assert_array_equal(session.powers, cold.powers)
    cold.ensure_live()
    np.testing.assert_array_equal(
        session.live_result().colors, cold.live_result().colors
    )
