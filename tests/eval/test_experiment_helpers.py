"""Tests for experiment-runner helpers and protocol constants."""

from repro.eval.experiments import (
    ENVIRONMENTS,
    NOISE_CONDITIONS,
    _split_counts,
)


class TestSplitCounts:
    def test_even_split(self):
        assert _split_counts(30, 3) == [10, 10, 10]

    def test_remainder_spread(self):
        assert _split_counts(31, 3) == [11, 10, 10]
        assert _split_counts(32, 3) == [11, 11, 10]

    def test_fewer_than_parts(self):
        counts = _split_counts(2, 3)
        assert sum(counts) == 2
        assert all(c > 0 for c in counts)

    def test_total_preserved(self):
        for total in (1, 7, 50, 199):
            for parts in (1, 2, 3, 5):
                assert sum(_split_counts(total, parts)) == total


class TestProtocolConstants:
    def test_noise_conditions_match_paper(self):
        kinds = {kind for kind, _ in NOISE_CONDITIONS}
        assert kinds == {"quiet", "music", "babble", "traffic"}
        levels = dict(NOISE_CONDITIONS)
        assert levels["quiet"] == 30.0  # "about 30 dB"
        assert levels["music"] == 50.0  # "about 50 dB"

    def test_three_environments(self):
        assert set(ENVIRONMENTS) == {
            "laboratory",
            "conference_hall",
            "outdoor",
        }
