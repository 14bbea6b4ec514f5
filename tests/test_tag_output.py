"""Tag output against its reference forms.

`export_timetags` must write the bytes of the %-template writer in
`ingest_reference` for every input, and `tag_order` must return the
permutation `np.lexsort((det, time, rep))` gives, ties included.
"""
import numpy as np
import pytest

import ingest_reference as ref
from timebin import coincidence
from timebin.coincidence import TagArrays, export_timetags, tag_order

MAX_REP = 2**63 - 1
# the smallest time whose t * 1e6 is not below 2^52
HUGE_TIME = 2.0**52 / 1e6


def tags(time, rep=None, det=None):
    time = np.asarray(time, float)
    rep = np.arange(len(time)) if rep is None else rep
    det = np.arange(len(time)) % 2 if det is None else det
    return TagArrays(np.asarray(det, np.int8), time, np.asarray(rep, np.int64))


def assert_matches_reference(tmp_path, tag_arrays):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_timetags(got, tag_arrays)
    ref.export_timetags(want, tag_arrays)
    assert got.read_bytes() == want.read_bytes()


def near_half_times(rng, count):
    """Times t with fl(t * 1e6) within one ulp of k + 1/2, and times that
    are exactly (2j + 1) / 128, whose t * 10^6 is a tie."""
    k = rng.integers(0, 10**12, count)
    base = (k + 0.5) / 1e6
    near = []
    for t, half in zip(base, k + 0.5):
        for step in range(-3, 4):
            c = t
            for _ in range(abs(step)):
                c = np.nextafter(c, np.inf if step > 0 else -np.inf)
            if abs(c * 1e6 - half) <= np.spacing(half):
                near.append(c)
    return np.concatenate([near, np.arange(1, 400, 2) / 128])


class TestExport:
    def test_near_half_times(self, tmp_path):
        time = near_half_times(np.random.default_rng(11), 500)
        assert len(time) > 1000
        assert_matches_reference(tmp_path, tags(np.concatenate(
            [[5e-7, 30.0000005, 999.9999995, 0.5e-6, 1.5e-6], time])))

    @pytest.mark.parametrize("time", [5e-7, 30.0000005, 999.9999995, 0.0078125, -0.0,
                                      -1.5, -1e-300, np.nan, -np.nan, np.inf, -np.inf,
                                      HUGE_TIME, 1e300])
    def test_special_time_takes_the_template(self, tmp_path, time):
        times = np.array([30.5, time, 42.0])
        assert coincidence._format_rows(np.zeros(3, np.int8), times,
                                        np.arange(3)) is None
        assert_matches_reference(tmp_path, tags(times))

    def test_time_bounds(self, tmp_path):
        times = np.array([0.0, 5e-324, 1e-7, 4.9999e-7, 123456.789, 1234567.25,
                          99_999_999.999999])
        assert coincidence._format_rows(np.zeros(len(times), np.int8), times,
                                        np.arange(len(times))) is not None
        assert_matches_reference(tmp_path, tags(times))
        # from 2^49 / 10^6 on, every t * 1e6 is within a few ulps of a tie
        big = [2.0**49 / 1e6, 999_999_999.999999, np.nextafter(HUGE_TIME, 0.0)]
        assert coincidence._format_rows(np.zeros(3, np.int8), np.array(big),
                                        np.arange(3)) is None
        assert_matches_reference(tmp_path, tags(big))

    @pytest.mark.parametrize("rep", [[0, 1, 9, 10], [0, MAX_REP, 10**18, 10**18 - 1],
                                     [3, -1, 5], [-(2**63), 0, 7]])
    def test_repetitions(self, tmp_path, rep):
        assert_matches_reference(tmp_path, tags([30.5, 42.0, 50.25, 60.0][:len(rep)], rep))

    @pytest.mark.parametrize("n", [0, 1, 65_536, 65_537])
    def test_chunk_sizes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        time = rng.uniform(0.0, 700.0, n)
        if n > 1:
            # the first chunk takes the template, the rest the byte matrix
            time[n // 3] = 30.0000005
        assert_matches_reference(tmp_path, tags(time, np.sort(rng.integers(0, 10**6, n)),
                                                rng.integers(0, 2, n)))

    def test_random_chunks(self):
        rng = np.random.default_rng(12)
        matrix = 0
        for _ in range(300):
            n = int(rng.integers(1, 400))
            time = rng.uniform(0.0, 10.0 ** rng.integers(-7, 10), n)
            time[rng.random(n) < 0.1] = np.round(time[0], int(rng.integers(0, 7)))
            rep = rng.integers(0, 10 ** rng.integers(1, 19), n)
            rep[rng.random(n) < 0.05] = MAX_REP
            det = rng.integers(0, 2, n).astype(np.int8)
            rows = coincidence._format_rows(det, time, rep)
            if rows is not None:
                matrix += 1
                assert rows == ref.format_rows(det, time, rep).encode()
        assert matrix > 250


# integer parts and repetitions at the edges of the formatter's fields:
# one and four digits, a field of two and of three groups of four, up to
# the last integer part below 2^49 / 10^6, from which every time is too
# near a rounding tie for the byte matrix
INT_PARTS = [0, 9, 10, 9_999, 10_000, 99_999_999, 10**8, 562_949_952]
REPETITIONS = [0, 9, 10, 9_999, 10_000, 10**8, MAX_REP]


def assert_formats_as_reference(det, time, rep):
    """_format_rows gives the template's bytes, without a filler byte."""
    rows = coincidence._format_rows(np.asarray(det, np.int8), np.asarray(time, float),
                                    np.asarray(rep, np.int64))
    assert rows is not None
    assert rows == ref.format_rows(np.asarray(det, np.int8), np.asarray(time, float),
                                   np.asarray(rep, np.int64)).encode()
    assert b"\0" not in rows


class TestFieldWidths:
    @pytest.mark.parametrize("whole", INT_PARTS)
    @pytest.mark.parametrize("rep", REPETITIONS)
    def test_alone(self, whole, rep):
        # the chunk's fields are as wide as this row's
        assert_formats_as_reference([0, 1], [whole + 0.25, whole + 0.5], [rep, rep])

    def test_mixed_in_one_chunk(self):
        # every pair in one chunk, D1 and D2 mixed: each row's leading zeros
        # in the widest fields are filler
        rng = np.random.default_rng(13)
        whole, rep = (a.ravel() for a in np.meshgrid(INT_PARTS, REPETITIONS))
        order = rng.permutation(len(whole))
        time = whole[order] + rng.choice([0.0, 0.125, 0.5, 0.75], len(whole))
        assert_formats_as_reference(rng.integers(0, 2, len(whole)), time, rep[order])

    def test_decimals(self):
        # every decimal place at 0 and 9, and the integer part's last digit
        decimals = [0, 1, 9, 10, 99, 100, 999_999, 900_000, 90_909, 500_000, 10_000]
        time = np.array([7 + d / 10**6 for d in decimals] + [10 + d / 10**6 for d in decimals])
        assert_formats_as_reference(np.arange(len(time)) % 2, time, np.arange(len(time)))


def assert_lexsort_order(det, time, rep):
    det = np.asarray(det, np.int8)
    time = np.asarray(time, float)
    rep = np.asarray(rep, np.int64)
    got = tag_order(det, time, rep)
    want = np.lexsort((det, time, rep))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestTagOrder:
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1_000, 70_000])
    def test_random(self, n):
        rng = np.random.default_rng(n)
        assert_lexsort_order(rng.integers(0, 2, n), rng.uniform(0.0, 606.06, n),
                             rng.integers(0, 400_000, n))

    def test_heavy_ties(self):
        rng = np.random.default_rng(1)
        n = 20_000
        assert_lexsort_order(rng.integers(0, 2, n),
                             rng.choice([0.0, -0.0, 30.5, 42.0, 42.000001], n),
                             rng.integers(0, 4, n))

    def test_signed_zero_ties(self):
        rng = np.random.default_rng(2)
        n = 5_000
        assert_lexsort_order(rng.integers(0, 2, n), rng.choice([0.0, -0.0], n),
                             np.zeros(n))

    def test_equal_keys_keep_input_order(self):
        assert_lexsort_order(np.ones(1_000), np.full(1_000, 30.5), np.full(1_000, 7))
        assert np.array_equal(tag_order(np.zeros(5, np.int8), np.zeros(5),
                                        np.zeros(5, np.int64)), np.arange(5))

    def test_repetitions_near_the_int64_limit(self):
        rng = np.random.default_rng(3)
        n = 10_000
        det, time = rng.integers(0, 2, n), rng.uniform(0.0, 606.06, n)
        assert_lexsort_order(det, time, MAX_REP - rng.integers(0, 5, n))
        # a span of 2^63 - 1 leaves no bits: the repetitions are ranked
        assert_lexsort_order(det, time, rng.choice([0, 1, MAX_REP - 1, MAX_REP], n))
        assert_lexsort_order(det, time, rng.choice([-(2**63), -1, 0, MAX_REP], n))

    def test_other_codes_and_times(self):
        rng = np.random.default_rng(4)
        n = 5_000
        assert_lexsort_order(rng.integers(-128, 128, n),
                             rng.choice([np.nan, np.inf, -np.inf, 1.0, -1.0, 0.0, -0.0], n),
                             rng.integers(-3, 3, n))

    @pytest.mark.parametrize("key_bits", [12, 20, 40])
    def test_keys_too_wide_for_the_index(self, monkeypatch, key_bits):
        # narrower keys take the stable argsort, and then two stable sorts
        monkeypatch.setattr(coincidence, "_KEY_BITS", key_bits)
        rng = np.random.default_rng(key_bits)
        n = 3_000
        assert_lexsort_order(rng.integers(0, 2, n), rng.choice(np.arange(500) / 7, n),
                             rng.choice(rng.integers(0, 10**9, 300), n))
