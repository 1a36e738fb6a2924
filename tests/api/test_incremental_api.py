"""The handle-based incremental Session API (arrivals/departures)."""

import warnings

import numpy as np
import pytest

from repro.api import Problem, RequestHandle
from repro.core.errors import InvalidInstanceError, InvalidScheduleError
from repro.instances.random_instances import random_uniform_instance
from repro.scheduling.firstfit import first_fit_schedule
from repro.scheduling.sqrt_coloring import sqrt_coloring


@pytest.fixture
def instance():
    return random_uniform_instance(10, rng=21)


@pytest.fixture
def session(instance):
    return Problem(instance).session()


class TestHandles:
    def test_add_requests_returns_handles(self, session):
        handles = session.add_requests([(0, 3), (2, 7)])
        assert type(handles) is list
        assert all(isinstance(h, RequestHandle) for h in handles)
        assert [(h.sender, h.receiver) for h in handles] == [(0, 3), (2, 7)]
        # uids are fresh and distinct from the initial requests'.
        assert len({h.uid for h in session.handles}) == 12

    def test_handles_stay_stable_across_departures(self, session):
        added = session.add_requests([(0, 3), (2, 7), (4, 9)])
        keep = added[1]
        session.remove_requests([added[0], added[2]])
        assert keep in session.handles
        assert session.active_requests == 11
        # The kept handle still resolves to a color.
        assert session.color_of(keep) >= 0

    def test_color_of_unknown_handle_raises(self, session):
        with pytest.raises(KeyError):
            session.color_of(RequestHandle(uid=999, sender=0, receiver=1))

    def test_plain_list_behavior_is_silent(self, session):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            handles = session.add_requests([(0, 3)])
            assert len(handles) == 1
            assert list(handles)[0].uid == handles[0].uid


class TestRemoveRequests:
    def test_remove_accepts_handles_and_uids(self, session):
        handles = session.add_requests([(0, 3), (2, 7)])
        session.remove_requests([handles[0], handles[1].uid])
        assert session.active_requests == 10
        assert session.departures == 2

    def test_remove_duplicate_rejected_atomically(self, session):
        handles = session.add_requests([(0, 3)])
        with pytest.raises(ValueError, match="duplicate"):
            session.remove_requests([handles[0], handles[0]])
        # The failed call removed nothing.
        assert session.active_requests == 11

    def test_remove_unknown_uid_rejected(self, session):
        handles = session.add_requests([(0, 3)])
        session.remove_requests(handles)
        with pytest.raises(KeyError):
            session.remove_requests(handles)

    def test_schedule_after_departure_compacts(self, session):
        handles = session.add_requests([(0, 3), (2, 7)])
        session.remove_requests([handles[0]])
        result = session.schedule("first_fit")
        assert result.colors.size == 11
        ref = first_fit_schedule(session.instance, session.powers)
        np.testing.assert_array_equal(result.colors, ref.colors)

    def test_rebuild_remaps_surviving_handles(self, session):
        handles = session.add_requests([(0, 3), (2, 7)])
        session.remove_requests([handles[0]])
        survivor = handles[1]
        session.rebuild()
        assert session.instance.n == 11
        assert survivor in session.handles
        assert session.color_of(survivor) >= 0

    def test_removing_every_request_blocks_rebuild(self, instance):
        session = Problem(instance).session()
        session.remove_requests(list(session.handles))
        with pytest.raises(InvalidScheduleError):
            session.rebuild()


class TestLiveAdmission:
    def test_add_requests_keeps_context_object(self, session):
        session.schedule("first_fit")
        context = session.context
        session.add_requests([(0, 3)])
        assert session._context is context
        assert context.n == 11

    def test_live_result_provenance(self, session):
        session.ensure_live()
        handles = session.add_requests([(0, 3), (2, 7)])
        session.remove_requests([handles[0]])
        result = session.live_result()
        prov = result.provenance
        assert prov.algorithm == "first_fit_online"
        assert prov.incremental is True
        assert prov.arrivals == 2
        assert prov.departures == 1
        assert result.colors.size == 11
        result.validate()

    def test_batch_provenance_counts_stream(self, session):
        session.add_requests([(0, 3)])
        result = session.schedule("first_fit")
        assert result.provenance.incremental is False
        assert result.provenance.arrivals == 1
        assert result.provenance.departures == 0

    def test_arrival_colors_match_fresh_session(self, session):
        session.ensure_live()
        session.add_requests([(0, 3), (2, 7), (5, 1)])
        live = np.asarray(session.ensure_live().colors)
        fresh = Problem(session.instance).session()
        ref = np.asarray(fresh.ensure_live().colors)
        np.testing.assert_array_equal(live, ref)


class TestValidationRegressions:
    def test_out_of_range_receiver_fails_up_front(self, session):
        with pytest.raises(InvalidInstanceError, match="receiver index 99"):
            session.add_requests([(0, 99)])
        # Nothing was committed by the failed call.
        assert session.instance.n == 10
        assert session.arrivals == 0

    def test_out_of_range_sender_names_the_pair(self, session):
        with pytest.raises(InvalidInstanceError, match="sender index -1"):
            session.add_requests([(0, 3), (-1, 2)])

    def test_message_names_valid_range(self, session):
        metric_size = session.instance.metric.n
        with pytest.raises(
            InvalidInstanceError, match=f"0..{metric_size - 1}"
        ):
            session.add_requests([(metric_size, 0)])


class TestRngReplay:
    def test_reschedule_replays_recorded_rng(self, instance):
        session = Problem(instance).session()
        first = session.schedule("sqrt_coloring", rng=42)
        replay = session.reschedule()
        np.testing.assert_array_equal(first.colors, replay.colors)
        ref, _ = sqrt_coloring(instance, rng=42)
        np.testing.assert_array_equal(replay.colors, ref.colors)

    def test_explicit_rng_overrides_recorded(self, instance):
        session = Problem(instance).session()
        session.schedule("sqrt_coloring", rng=42)
        override = session.reschedule(rng=7)
        ref, _ = sqrt_coloring(instance, rng=7)
        np.testing.assert_array_equal(override.colors, ref.colors)

    def test_replay_survives_growth(self, instance):
        session = Problem(instance).session()
        session.schedule("sqrt_coloring", rng=13)
        session.add_requests([(0, 3)])
        regrown = session.reschedule()
        ref, _ = sqrt_coloring(session.instance, rng=13)
        np.testing.assert_array_equal(regrown.colors, ref.colors)
