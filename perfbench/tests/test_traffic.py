import numpy as np

from perfbench import traffic

FLAGS = [enrolled for _, enrolled in traffic.pool_subjects(16)]


def test_arrival_schedule_is_deterministic_per_seed():
    first = traffic.arrival_offsets(7, 5.0, 200)
    again = traffic.arrival_offsets(7, 5.0, 200)
    other = traffic.arrival_offsets(8, 5.0, 200)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_arrival_schedule_is_sorted_inside_its_window():
    offsets = traffic.arrival_offsets(3, 8.0, 200)
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[0] >= 0 and offsets[-1] <= 200 / 8.0


def test_request_mix_is_deterministic_per_seed():
    weights = (0.4, 0.3, 0.2, 0.1)
    first = traffic.request_mix(5, "open", 300, FLAGS, weights)
    assert first == traffic.request_mix(5, "open", 300, FLAGS, weights)
    assert first != traffic.request_mix(6, "open", 300, FLAGS, weights)


def test_rate_and_phase_length_do_not_move_the_mix():
    # Streams are isolated: drawing arrivals at another rate, or a longer
    # open-loop phase, leaves the drain burst untouched.
    drain = traffic.request_mix(5, "drain", 64, FLAGS, (1.0,))
    traffic.arrival_offsets(5, 2.0, 500)
    traffic.request_mix(5, "open", 999, FLAGS, (1.0,))
    assert traffic.request_mix(5, "drain", 64, FLAGS, (1.0,)) == drain
    short = traffic.request_mix(5, "open", 50, FLAGS, (1.0,))
    assert traffic.request_mix(5, "open", 80, FLAGS, (1.0,))[:50] == short


def test_request_mix_shares():
    draws = traffic.request_mix(1, "open", 4000, FLAGS, (0.4, 0.3, 0.2, 0.1))
    spoofs = sum(1 for d in draws if not FLAGS[d.attempt])
    assert abs(spoofs / len(draws) - traffic.SPOOF_SHARE) < 0.03
    tenant0 = sum(1 for d in draws if d.tenant == "tenant-0")
    assert abs(tenant0 / len(draws) - 0.4) < 0.03
    assert {d.attempt for d in draws} == set(range(len(FLAGS)))


def test_pool_has_every_user_and_a_quarter_spoofers():
    subjects = traffic.pool_subjects(16)
    assert sum(1 for _, enrolled in subjects if not enrolled) == 4
    assert {sid for sid, enrolled in subjects if enrolled} == set(
        traffic.USERS
    )


def test_named_streams_are_independent_of_draw_order():
    a = traffic.stream(9, traffic.POOL + ".3").random(4)
    traffic.stream(9, traffic.POOL + ".2").random(100)
    assert np.array_equal(a, traffic.stream(9, traffic.POOL + ".3").random(4))
