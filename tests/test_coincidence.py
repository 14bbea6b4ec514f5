import math
import os
import warnings

import numpy as np
import pytest

from timebin.coincidence import (EARLY, LATE, MIDDLE, READOUT, WINDOWS,
                                 HomCounts, TagArrays, WindowConfig,
                                 build_histogram, click_cell, g2_zero,
                                 hom_correct, hom_counts_from_tags,
                                 hom_visibility, histogram_to_csv,
                                 export_timetags, ingest_timetags)
from timebin.cli import main
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.emitter import ideal_emitter, ideal_noise
from timebin.errors import ContractError, ParseError, UndefinedEstimateError
from timebin.experiments import simulate_hom
from timebin.interferometer import Window


def hom_run(*args):
    """simulate_hom's result and its tags: the blocks' tags, which follow
    each other in order, joined."""
    parts = []
    run = simulate_hom(*args, on_block=parts.append)
    tags = TagArrays(*(np.concatenate([getattr(part, name) for part in parts])
                       for name in ("detector", "time", "repetition")))
    tags._ordered = True
    return run, tags


def tag_arrays(*rows):
    """TagArrays from (detector, time, repetition) rows; detector 0 = D1."""
    det, time, rep = zip(*rows) if rows else ((), (), ())
    return TagArrays(np.array(det, np.int8), np.array(time, float),
                     np.array(rep, np.int64))


class TestHistogram:
    def test_single_tag(self):
        starts, counts = build_histogram(tag_arrays((0, 5.2, 0)), bin_width=1.0)
        assert counts[5] == 1
        assert counts.sum() == 1

    def test_zero_bin_width(self):
        with pytest.raises(ContractError):
            build_histogram(tag_arrays((0, 5.2, 0)), bin_width=0.0)

    def test_empty_tags(self):
        with pytest.raises(ContractError):
            build_histogram(tag_arrays(), bin_width=1.0)

    @staticmethod
    def _analyze_histogram(tmp_path, width):
        path = tmp_path / "tags.csv"
        path.write_text("detector,time_ns,repetition\nD1,30.5,0\nD2,42.0,1\n")
        out = tmp_path / "ana"
        code = main(["analyze", "--input", str(path), "--mode", "histogram",
                     f"--bin-width={width}", "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("width", ["nan", "inf", "0", "-1"])
    def test_bin_width_not_finite_and_positive(self, tmp_path, capsys, width):
        code, out = self._analyze_histogram(tmp_path, width)
        assert code == 1
        assert f"got {float(width)}" in capsys.readouterr().err
        assert not (out / "histogram.csv").exists()
        assert not (out / "analysis.json").exists()

    def test_bin_count_bounded_before_allocation(self, tmp_path, monkeypatch, capsys):
        # 42 ns in 1.4e-9 ns bins would be 3e10 bins (240 GB of counts)
        def no_bincount(*args, **kwargs):
            raise AssertionError("bincount called")
        monkeypatch.setattr(np, "bincount", no_bincount)
        code, out = self._analyze_histogram(tmp_path, "1.4e-9")
        assert code == 1
        assert "more than 10000000" in capsys.readouterr().err
        assert not (out / "histogram.csv").exists()
        with pytest.raises(ContractError, match="bin width 1e-06 ns"):
            build_histogram(tag_arrays((0, 30.5, 0)), bin_width=1e-6)

    def test_bell_peak_structure(self):
        # ideal Bell run: three photonic peaks with early:middle:late
        # integrated weights 1:2:1, plus the readout plateau
        from timebin.experiments import witness_trajectory
        blocks = []
        run = witness_trajectory(2, ideal_emitter(), ideal_noise(), paper_tbi(),
                                 30_000, 3, on_block=blocks.append)
        (clicks_list,) = blocks
        tags = clicks_list[0].to_tags()
        windows = run.subruns[0].windows
        for clicks in clicks_list[1:]:
            more = clicks.to_tags()
            tags = TagArrays(np.concatenate([tags.detector, more.detector]),
                             np.concatenate([tags.time, more.time]),
                             np.concatenate([tags.repetition, more.repetition]))
        def window_sum(start):
            sel = (tags.time >= start) & (tags.time < start + windows.width)
            return int(np.sum(sel))
        early = window_sum(windows.early_start)
        middle = window_sum(windows.middle_start)
        late = window_sum(windows.late_start)
        total = early + middle + late
        assert abs(early / total - 0.25) < 0.02
        assert abs(middle / total - 0.5) < 0.02
        assert abs(late / total - 0.25) < 0.02
        readout = np.sum((tags.time >= windows.readout_start)
                         & (tags.time < windows.readout_start + windows.readout_width))
        assert readout > 0

    def test_empty_readout_when_disabled(self):
        # readout detection off: the readout window stays empty
        import dataclasses
        noise = dataclasses.replace(ideal_noise(), eta_readout=0.0)
        run, tags = hom_run(ideal_emitter(), noise, paper_tbi(), 5000, 3)
        sel = (tags.time >= run.windows.readout_start)
        assert int(np.sum(sel)) == 0


class TestG2:
    def test_perfect_single_photons(self):
        run = simulate_hom(ideal_emitter(), ideal_noise(), paper_tbi(), 50_000, 5)
        assert run.g2 == pytest.approx(0.0, abs=3 * max(run.g2_err, 1e-4))

    def test_needs_two_reps(self):
        windows = WindowConfig()
        with pytest.raises(UndefinedEstimateError):
            g2_zero(tag_arrays((0, 30.5, 0)), windows)

    def test_no_long_delay_coincidences(self):
        windows = WindowConfig()
        # only one detector per repetition: no cross-detector pairs at all
        with pytest.raises(UndefinedEstimateError):
            g2_zero(tag_arrays((0, 30.5, 0), (1, 30.6, 1)), windows)

    def test_repetition_offset_invariant(self, tmp_path):
        # g2 depends on repetition differences only; a counter starting near
        # 2^40 must neither change it nor allocate per repetition index
        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), 4000, 9)
        assert tags.repetition.max() - tags.repetition.min() >= 50
        shifted = TagArrays(tags.detector, tags.time, tags.repetition + np.int64(2**40))
        g2, err, detail = g2_zero(tags, run.windows)
        assert g2_zero(shifted, run.windows) == (g2, err, detail)
        # the dense per-repetition sums that the pairing of distinct
        # repetitions replaces
        code = _reference_codes(run.windows, tags.time) & 3
        n_reps = int(tags.repetition.max()) + 1
        for window in (Window.EARLY, Window.LATE):
            sel = code == WINDOWS.index(window)
            n1, n2 = (np.bincount(tags.repetition[sel & (tags.detector == d)],
                                  minlength=n_reps) for d in (0, 1))
            far = sum(0.5 * float(np.sum(n1[:-d] * n2[d:]) + np.sum(n2[:-d] * n1[d:]))
                      for d in range(1, 51))
            assert detail[window.value]["same"] == float(np.sum(n1 * n2))
            assert detail[window.value]["far_mean"] == far / 50
        path = tmp_path / "shifted.csv"
        export_timetags(path, shifted)
        assert main(["analyze", "--input", str(path), "--mode", "g2",
                     "--out", str(tmp_path / "out")]) == 0

    def test_short_span_offset_invariant(self):
        # k is the span of the repetitions, not the largest index: with 21
        # repetitions, tags on 0..20 and on 1000..1020 give the same g2
        rng = np.random.default_rng(4)
        w = WindowConfig()
        n = 400
        det = rng.integers(0, 2, n)
        time = rng.choice([w.early_start + 0.5, w.late_start + 0.5], n)
        rep = rng.integers(0, 21, n)
        rows = sorted(zip(rep, time, det))
        at_zero = tag_arrays(*((d, t, r) for r, t, d in rows))
        at_1000 = tag_arrays(*((d, t, r + 1000) for r, t, d in rows))
        assert at_zero.repetition.max() - at_zero.repetition.min() == 20
        assert g2_zero(at_1000, w) == g2_zero(at_zero, w)

    def test_needs_two_repetitions_at_any_offset(self):
        windows = WindowConfig()
        with pytest.raises(UndefinedEstimateError, match="two repetitions"):
            g2_zero(tag_arrays((0, 30.5, 7), (1, 30.6, 7)), windows)

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_long_delay_pairs_match_pair_loop(self, k):
        from timebin.coincidence import _long_delay_pairs
        # sparse repetitions whose gaps are exactly k, k + 1 and 2k, then
        # also the largest repetition a tag file may hold
        rng = np.random.default_rng(k)
        gaps = rng.choice([1, k, k + 1, 2 * k], 300)
        for last in ((), (2**63 - 1,)):
            reps = np.r_[0, np.cumsum(gaps), last].astype(np.int64)
            n1, n2 = rng.integers(1, 4, (2, len(reps)))
            want = sum(int(n1[a] * n2[b] + n2[a] * n1[b])
                       for a in range(len(reps)) for b in range(a + 1, len(reps))
                       if 1 <= int(reps[b]) - int(reps[a]) <= k)
            assert want > 0
            assert _long_delay_pairs(reps, n1, n2, k) == want


class TestHomEstimators:
    def test_perfect_suppression(self):
        v, _ = hom_visibility(HomCounts(500, 0, 500))
        assert v == pytest.approx(1.0)

    def test_distinguishable_photons(self):
        v, _ = hom_visibility(HomCounts(500, 500, 500))
        assert v == pytest.approx(0.0)

    def test_paper_ratio(self):
        # counts scaled from the reported visibility recover it exactly
        n1 = n3 = 10_000
        n2 = int(round((1 - 0.865) * (n1 + n3) / 2))
        v, err = hom_visibility(HomCounts(n1, n2, n3))
        assert v == pytest.approx(0.865, abs=1e-3)

    def test_scale_invariance(self):
        v1, _ = hom_visibility(HomCounts(400, 30, 380))
        v2, _ = hom_visibility(HomCounts(400 * 7, 30 * 7, 380 * 7))
        assert v1 == pytest.approx(v2)

    def test_zero_sides_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            hom_visibility(HomCounts(0, 10, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractError):
            HomCounts(-1, 0, 0)


class TestHomCorrection:
    def test_formula_arithmetic(self):
        assert hom_correct(0.865, 0.047, 1.0) == pytest.approx(0.946, abs=1e-3)

    def test_identity_transform(self):
        assert hom_correct(0.91, 0.0, 1.0) == pytest.approx(0.91)

    def test_roundtrip_exact(self):
        # degrade V by the same model, then correct: 1e-10 recovery
        v_true, g2, v_cl = 0.957, 0.047, 0.989
        v_raw = v_true * v_cl / (1 + 2 * g2)
        assert abs(hom_correct(v_raw, g2, v_cl) - v_true) < 1e-10

    def test_input_validation(self):
        with pytest.raises(ContractError):
            hom_correct(0.9, 0.02, 0.0)
        with pytest.raises(ContractError):
            hom_correct(0.9, -0.1, 1.0)


class TestIndistinguishabilityLimits:
    def test_identical_photons_dip(self):
        from timebin.interferometer import TBIParams
        run = simulate_hom(ideal_emitter(), ideal_noise(),
                           TBIParams(classical_visibility=1.0), 60_000, 9)
        # ideal photons and unit classical visibility: V_raw -> 1
        assert run.v_raw > 0.99

    def test_orthogonal_photons_no_dip(self):
        import dataclasses
        noise = dataclasses.replace(ideal_noise(), indistinguishability=0.0)
        run = simulate_hom(ideal_emitter(), noise, paper_tbi(), 60_000, 9)
        assert abs(run.v_raw - (1 - 1.0) * 1.0) < 3 * run.v_raw_err + 0.02


class TestWindowConfig:
    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            WindowConfig(early_start=30.0, middle_start=31.0)

    @pytest.mark.parametrize("field", ["early_start", "middle_start", "late_start",
                                       "width", "readout_start", "readout_width",
                                       "slot_spacing"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN would pass the overlap check, as every comparison with it fails
        with pytest.raises(ContractError, match=f"window {field} must be finite"):
            WindowConfig(**{field: value})

    def test_needs_a_slot(self):
        with pytest.raises(ContractError, match="at least one slot"):
            WindowConfig.for_sequence(0)

    def test_classify(self):
        from timebin.coincidence import _analysis_view
        w = WindowConfig()
        times = [30.5, 42.0, 54.0, 80.0, 10.0]
        tags = tag_arrays(*((0, t, r) for r, t in enumerate(times)))
        view, code = _analysis_view(tags, w)
        assert view is tags and code.dtype == np.int8
        assert (code >> 2).tolist() == [0, 0, 0, 0, -1]
        assert [WINDOWS[c & 3] if c >= 0 else None for c in code] == [
            Window.EARLY, Window.MIDDLE, Window.LATE, Window.READOUT, None]

    def test_classify_two_slots(self):
        from timebin.coincidence import _analysis_view
        w = WindowConfig.for_sequence(2)
        times = [30.5, 58.5, 70.0, 82.0, 90.0, 65.0]
        tags = tag_arrays(*((1, t, r) for r, t in enumerate(times)))
        _, code = _analysis_view(tags, w)
        assert code.tolist() == [4 * 0 + EARLY, 4 * 1 + EARLY, 4 * 1 + MIDDLE,
                                 4 * 1 + LATE, READOUT, -1]
        assert np.array_equal(code, _reference_codes(w, times))

    @pytest.mark.parametrize("n_slots, dtype", [(32, np.int8), (33, np.int16)])
    def test_classify_many_slots(self, n_slots, dtype):
        # the codes of the last slots do not fit int8 from 33 slots on
        from timebin.coincidence import _analysis_view
        w = WindowConfig.for_sequence(n_slots)
        last = n_slots - 1
        times = [w.window_start(last - 1, Window.LATE) + 1.0,
                 w.window_start(last, Window.EARLY) + 0.5,
                 w.window_start(last, Window.MIDDLE) + 0.5,
                 w.window_start(last, Window.LATE) + 1.9,
                 w.readout_start + 10.0, w.readout_start + w.readout_width]
        tags = tag_arrays(*((0, t, r) for r, t in enumerate(times)))
        _, code = _analysis_view(tags, w)
        assert code.dtype == dtype
        assert code.tolist() == [4 * (last - 1) + LATE, 4 * last + EARLY,
                                 4 * last + MIDDLE, 4 * last + LATE, READOUT, -1]
        assert np.array_equal(code, _reference_codes(w, times))


def _reference_classify(windows, time):
    """The scalar classifier the array form replaced: (slot, Window) or None."""
    if windows.readout_start <= time < windows.readout_start + windows.readout_width:
        return (0, Window.READOUT)
    for slot in range(windows.n_slots):
        for w in (Window.EARLY, Window.MIDDLE, Window.LATE):
            start = windows.window_start(slot, w)
            if start <= time < start + windows.width:
                return (slot, w)
    return None


def _reference_codes(windows, times) -> np.ndarray:
    """_analysis_view's code of each time by _reference_classify: 4 * slot
    + window code, -1 between windows."""
    classes = [_reference_classify(windows, t) for t in times]
    return np.array([-1 if c is None else 4 * c[0] + WINDOWS.index(c[1])
                     for c in classes], np.int64)


def _reference_hom_counts(tags, windows, center_halfwidth=None):
    """Per-repetition pair loop over scalar-classified tags."""
    t_inf = windows.bin_separation
    half = t_inf / 2.0 if center_halfwidth is None else center_halfwidth
    order = np.lexsort((tags.time, tags.repetition))
    det, time, rep = tags.detector[order], tags.time[order], tags.repetition[order]
    photonic = np.array([_reference_classify(windows, t) is not None
                         and _reference_classify(windows, t)[1] != Window.READOUT
                         for t in time], dtype=bool)
    det, time, rep = det[photonic], time[photonic], rep[photonic]
    mid = np.array([_reference_classify(windows, t)[1] == Window.MIDDLE for t in time])
    n1 = n2 = n3 = 0
    start = 0
    n = len(time)
    while start < n:
        end = start
        while end < n and rep[end] == rep[start]:
            end += 1
        for i in range(start, end):
            for j in range(i + 1, end):
                if det[i] == det[j]:
                    continue
                if not (mid[i] or mid[j]):
                    continue
                tau = time[j] - time[i] if det[i] == 0 else time[i] - time[j]
                if abs(tau) < half:
                    n2 += 1
                elif abs(tau + t_inf) < half:
                    n1 += 1
                elif abs(tau - t_inf) < half:
                    n3 += 1
        start = end
    return HomCounts(n1, n2, n3)


class TestHomPairCounting:
    def _tags(self, windows, n_reps, seed):
        # clicks at window starts (inside) and ends (outside), inside
        # windows, between windows and in the readout window, with
        # equal-time ties and up to nine tags per repetition
        rng = np.random.default_rng(seed)
        points = []
        for s in range(windows.n_slots):
            for w in (Window.EARLY, Window.MIDDLE, Window.LATE):
                start = windows.window_start(s, w)
                points += [start, start + windows.width, start + 0.3, start + 1.7]
        points += [windows.readout_start, windows.readout_start + 5.0,
                   windows.early_start - 1.0, windows.middle_start - 2.5]
        rows = []
        for r in range(n_reps):
            k = rng.integers(0, 8)
            times = rng.choice(points, size=k)
            if k and rng.random() < 0.3:
                times = np.r_[times, times[0]]
            for t in times:
                rows.append((int(rng.integers(0, 2)), float(t), r))
            if k and rng.random() < 0.2:
                rows.append((1 - rows[-1][0], rows[-1][1], r))
        rng.shuffle(rows)
        return tag_arrays(*rows)

    @pytest.mark.parametrize("windows", [WindowConfig(), WindowConfig.for_sequence(1),
                                         WindowConfig.for_sequence(2)])
    @pytest.mark.parametrize("center_halfwidth", [None, 1.5, 10.5])
    def test_matches_pair_loop(self, windows, center_halfwidth):
        tags = self._tags(windows, 600, 17)
        got = hom_counts_from_tags(tags, windows, center_halfwidth)
        want = _reference_hom_counts(tags, windows, center_halfwidth)
        assert got == want
        assert got.n1 + got.n2 + got.n3 > 0

    def test_edges_and_ties(self):
        w = WindowConfig()
        tags = tag_arrays(
            # middle click at its window's start pairs with an early click
            (0, w.early_start, 0), (1, w.middle_start, 0),
            # a window's end is outside it: no middle gate, no pair
            (0, w.early_start, 1), (1, w.middle_start + w.width, 1),
            # equal-time cross-detector tie in the middle window: center
            (0, w.middle_start + 1.0, 2), (1, w.middle_start + 1.0, 2),
            # readout and between-window tags never pair
            (0, w.middle_start + 0.5, 3), (1, w.readout_start, 3),
            (1, w.middle_start - 1.0, 3))
        got = hom_counts_from_tags(tags, w)
        assert got == _reference_hom_counts(tags, w)
        # rep 0: tau = t_D2 - t_D1 = +T_inf (n3); rep 2: tau = 0 (n2)
        assert got == HomCounts(0, 1, 1)


class TestSortedTagEntry:
    def test_shuffled_tags_give_the_same_results(self):
        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), 4000, 9)
        perm = np.random.default_rng(2).permutation(len(tags))
        columns = (tags.detector[perm], tags.time[perm], tags.repetition[perm])
        before = [c.copy() for c in columns]
        shuffled = TagArrays(*columns)
        assert g2_zero(shuffled, run.windows) == (run.g2, run.g2_err, run.g2_detail)
        assert hom_counts_from_tags(shuffled, run.windows) == run.hom_counts
        for got, want in zip(columns, before):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype

    def test_one_classification_per_window_config(self, monkeypatch):
        from timebin.coincidence import _analysis_view
        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), 2000, 3)
        tags = TagArrays(tags.detector, tags.time, tags.repetition)
        calls = []
        hits = WindowConfig._hits
        monkeypatch.setattr(WindowConfig, "_hits",
                            lambda self, times: calls.append(self) or hits(self, times))
        for _ in range(2):
            g2_zero(tags, run.windows)
            hom_counts_from_tags(tags, run.windows)
        assert calls == [run.windows]
        # the cached codes are the scalar classifier's
        view, code = _analysis_view(tags, run.windows)
        assert view is tags and code.dtype == np.int8
        assert np.array_equal(code, _reference_codes(run.windows, tags.time))

    def test_order_checked_once(self, monkeypatch, tmp_path):
        # producers mark their tags as ordered; hand-built tags are checked
        # once, and simulate hom and analyze --mode hom check no order
        # but the one of the file they read
        from timebin import coincidence

        calls = []
        in_order = coincidence._in_order
        monkeypatch.setattr(coincidence, "_in_order",
                            lambda tags: calls.append(len(tags)) or in_order(tags))
        out, ana = tmp_path / "sim", tmp_path / "ana"
        assert main(["simulate", "hom", "--reps", "3000", "--out", str(out)]) == 0
        assert calls == []
        assert main(["analyze", "--input", str(out / "timetags.csv"), "--mode", "hom",
                     "--out", str(ana)]) == 0
        assert len(calls) == 1 and calls[0] > 3000
        tags = ingest_timetags(out / "timetags.csv")
        assert tags._ordered and len(calls) == 2
        built = TagArrays(tags.detector, tags.time, tags.repetition)
        assert not built._ordered
        for windows in (WindowConfig(), WindowConfig.for_sequence(1)):
            g2_zero(built, windows)
            hom_counts_from_tags(built, windows)
        assert built._ordered and len(calls) == 3

    @pytest.mark.parametrize("windows", [WindowConfig(), WindowConfig.for_sequence(2)])
    def test_codes_match_reference_at_window_edges(self, windows):
        from timebin.coincidence import _analysis_view
        tags = TestHomPairCounting()._tags(windows, 300, 5)
        view, code = _analysis_view(tags, windows)
        assert view is not tags
        assert np.array_equal(code, _reference_codes(windows, view.time))


class TestTimeTagIO:
    def test_roundtrip(self, tmp_path):
        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), 20_000, 12)
        path = tmp_path / "tags.csv"
        export_timetags(path, tags)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # sorted input: no warning
            back = ingest_timetags(path)
        again = tmp_path / "again.csv"
        export_timetags(again, back)
        assert again.read_bytes() == path.read_bytes()
        assert back.detector.dtype == np.int8 and back.repetition.dtype == np.int64
        assert back.detector.tolist() == tags.detector.tolist()
        assert back.repetition.tolist() == tags.repetition.tolist()
        assert back.time.tolist() == [float(f"{t:.6f}") for t in tags.time.tolist()]
        assert len(back) == len(tags)
        g2_a = g2_zero(tags, run.windows)[0]
        g2_b = g2_zero(back, run.windows)[0]
        assert g2_a == pytest.approx(g2_b, abs=1e-9)
        hom_a = hom_counts_from_tags(tags, run.windows)
        hom_b = hom_counts_from_tags(back, run.windows)
        assert (hom_a.n1, hom_a.n2, hom_a.n3) == (hom_b.n1, hom_b.n2, hom_b.n3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        empty = ingest_timetags(path)
        assert len(empty) == 0
        with pytest.raises((UndefinedEstimateError, ContractError)):
            build_histogram(empty, 1.0)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["detector,time_ns,repetition"]
        rows += [f"D1,{i}.5,{i}" for i in range(100)]
        rows[50] = "D1,not_a_number,49"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            ingest_timetags(path)
        assert err.value.line == 51

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\nD1,1.0,0\n")
        with pytest.raises(ParseError):
            ingest_timetags(path)

    def test_unknown_detector(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("detector,time_ns,repetition\nD3,1.0,0\n")
        with pytest.raises(ParseError):
            ingest_timetags(path)

    def test_non_monotone_warns(self, tmp_path):
        path = tmp_path / "mono.csv"
        path.write_text("detector,time_ns,repetition\n"
                        "D1,5.0,1\nD1,3.0,0\n")
        with pytest.warns(UserWarning):
            ingest_timetags(path)

    def test_non_monotone_warns_at_large_repetition(self, tmp_path):
        # repetition * 1e9 + time would round both rows to the same value
        path = tmp_path / "mono.csv"
        path.write_text("detector,time_ns,repetition\n"
                        "D1,31.000020,400000\nD1,31.000010,400000\n")
        with pytest.warns(UserWarning, match="non-monotone"):
            ingest_timetags(path)

    @staticmethod
    def _rejected(tmp_path, row, mode):
        path = tmp_path / "bad.csv"
        path.write_text(f"detector,time_ns,repetition\nD1,30.5,0\nD2,42.0,1\n{row}\n")
        with pytest.raises(ParseError) as err:
            ingest_timetags(path)
        assert err.value.line == 4
        assert main(["analyze", "--input", str(path), "--mode", mode,
                     "--out", str(tmp_path / "ana")]) == 1

    def test_infinite_time_rejected(self, tmp_path):
        self._rejected(tmp_path, "D1,inf,2", "histogram")

    def test_nan_time_rejected(self, tmp_path):
        self._rejected(tmp_path, "D2,nan,2", "histogram")

    def test_negative_repetition_rejected(self, tmp_path):
        for mode in ("g2", "hom"):
            self._rejected(tmp_path, "D1,30.7,-3", mode)

    def test_byte_not_utf8_names_line(self, tmp_path, capsys):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"detector,time_ns,repetition\r\nD1,30.5,0\r\nD1,2.5,\xff1\r\n")
        with pytest.raises(ParseError, match="byte 0xff is not UTF-8") as err:
            ingest_timetags(path)
        assert err.value.line == 3
        assert main(["analyze", "--input", str(path), "--mode", "histogram",
                     "--out", str(tmp_path / "ana")]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: byte 0xff")

    def test_byte_not_utf8_in_header_or_detector(self, tmp_path):
        path = tmp_path / "bytes.csv"
        for data, line in ((b"detector,time_ns,r\xe9petition\nD1,30.5,0\n", 1),
                           (b"detector,time_ns,repetition\nD1,30.5,0\n\n\"D\x801\",42.0,1\n", 4)):
            path.write_bytes(data)
            with pytest.raises(ParseError, match="is not UTF-8") as err:
                ingest_timetags(path)
            assert err.value.line == line
        # a valid UTF-8 character is reported as the value it is
        path.write_bytes("detector,time_ns,repetition\nD\u00e9,30.5,0\n".encode())
        with pytest.raises(ParseError, match="unknown detector 'D\u00e9'"):
            ingest_timetags(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input(self):
        # a pipe cannot be read twice: it goes to the row parser
        read_end, write_end = os.pipe()
        os.write(write_end, b"detector,time_ns,repetition\nD2,42.0,1\nD1,30.5,0\n")
        os.close(write_end)
        try:
            tags = ingest_timetags(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert tags.detector.tolist() == [0, 1]
        assert tags.repetition.tolist() == [0, 1]

    def test_repetition_above_int64_rejected(self, tmp_path):
        path = tmp_path / "max.csv"
        path.write_text("detector,time_ns,repetition\nD2,42.0,9223372036854775807\n")
        assert ingest_timetags(path).repetition.tolist() == [2**63 - 1]
        for mode in ("g2", "hom"):
            self._rejected(tmp_path, "D2,42.0,9223372036854775808", mode)

    def test_chunked_export_matches_csv_writer(self, tmp_path):
        import csv
        n = 65_536 + 1_234
        rng = np.random.default_rng(4)
        time = rng.uniform(0.0, 700.0, n)
        time[:6] = [0.0, 1e-7, 999.9999995, 5e-7, 30.0000005, 123456.789]
        tags = TagArrays(rng.integers(0, 2, n).astype(np.int8), time,
                         np.sort(rng.integers(0, 10**9, n)))
        path = tmp_path / "tags.csv"
        export_timetags(path, tags)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector", "time_ns", "repetition"])
            for d, t, r in zip(tags.detector, tags.time, tags.repetition):
                writer.writerow(["D1" if d == 0 else "D2", f"{t:.6f}", int(r)])
        assert path.read_bytes() == want.read_bytes()

    def test_histogram_csv(self, tmp_path):
        starts, counts = build_histogram(tag_arrays((0, 1.2, 0), (1, 1.4, 0)), 1.0)
        path = tmp_path / "hist.csv"
        histogram_to_csv(path, starts, counts)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_start_ns,count"
        assert lines[2] == "1,2"


class TestTagExpansion:
    def test_offset_laws(self):
        # wavepacket clicks (signal and flagged, first and second in a cell)
        # sit an Exp(gamma0) offset after their window start, clipped at
        # 0.999 * width; background clicks are uniform over their window and
        # readout clicks uniform over the readout window
        from types import SimpleNamespace

        from timebin.detection import RunClicks

        windows = WindowConfig.for_sequence(2)
        n, gamma0 = 40_000, 2.54
        signal = np.zeros((n, 12), np.uint8)
        flagged = np.zeros((n, 12), np.uint8)
        background = np.zeros((n, 12), np.uint8)
        wave_cells = [click_cell(0, EARLY, 0), click_cell(1, MIDDLE, 1),
                      click_cell(1, LATE, 0)]
        signal[:, wave_cells[0]] = 2
        signal[::2, wave_cells[1]] = 1
        flagged[::3, wave_cells[2]] = 1
        background_cells = [click_cell(0, LATE, 1), click_cell(1, EARLY, 0)]
        background[::2, background_cells[0]] = 1
        background[1::2, background_cells[1]] = 1
        readout = np.arange(n) % 4 == 0
        clicks = RunClicks(SimpleNamespace(windows=windows),
                           SimpleNamespace(rep_indices=np.arange(n, dtype=np.uint64)),
                           [], np.zeros(n, np.int8), readout, np.zeros(n, bool),
                           signal, flagged, background, 11)
        tags = clicks.to_tags(gamma0)
        ref = _reference_codes(windows, tags.time)
        slot, code = ref >> 2, ref & 3
        cell = np.where(code == READOUT, -1, click_cell(slot, code, tags.detector))
        starts = np.array([windows.window_start(s, WINDOWS[c]) if c != READOUT
                           else windows.readout_start for s, c in zip(slot, code)])
        offset = tags.time - starts

        def ks(x, cdf):
            x = np.sort(x)
            f = cdf(x)
            return max(np.max(np.arange(1, len(x) + 1) / len(x) - f),
                       np.max(f - np.arange(len(x)) / len(x)))

        clip = 0.999 * windows.width

        def clipped_exp(t):
            return np.where(t < clip - 1e-9, 1 - np.exp(-gamma0 * t), 1.0)

        for c, count in zip(wave_cells, (2 * n, n // 2, (n + 2) // 3)):
            x = offset[cell == c]
            assert len(x) == count
            at_clip = np.mean(x > clip - 1e-9)
            p_clip = np.exp(-gamma0 * clip)
            assert abs(at_clip - p_clip) < 5 * np.sqrt(p_clip / len(x))
            assert ks(x, clipped_exp) < 2 / np.sqrt(len(x))
        # the two clicks of one cell draw from different streams
        pair = offset[cell == wave_cells[0]].reshape(n, 2)
        assert not np.any((pair[:, 0] == pair[:, 1]) & (pair[:, 0] < clip - 1e-9))
        for c in background_cells:
            x = offset[cell == c]
            assert len(x) == n // 2
            assert ks(x, lambda t: t / windows.width) < 2 / np.sqrt(len(x))
        x = offset[code == READOUT]
        assert len(x) == readout.sum()
        assert ks(x, lambda t: t / windows.readout_width) < 2 / np.sqrt(len(x))
        assert len(tags) == (signal.sum() + flagged.sum() + background.sum()
                             + readout.sum())

    @pytest.mark.parametrize("shift", [0.0, 3e-7, 7.5e-7])
    @pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 0.0], ids=["below_1", "0"])
    def test_written_times_read_back_in_their_window(self, tmp_path, monkeypatch,
                                                     shift, u):
        # every tag draw at u: next to 1 a background or readout tag sits
        # just before its window's end, at 0 every tag on its window's
        # start, which is off the 1e-6 ns grid of the written times for a
        # nonzero shift.  Each tag's 6-decimal text must read back inside the
        # window the tag was drawn for.
        import dataclasses

        from timebin import rng

        windows = WindowConfig.for_sequence(1)
        windows = dataclasses.replace(
            windows, **{name: getattr(windows, name) + shift for name in
                        ("early_start", "middle_start", "late_start", "readout_start")})
        uniforms = rng.uniforms
        monkeypatch.setattr(rng, "uniforms", lambda seed, reps, stream: (
            np.full(len(reps), u) if stream != rng.stream("detection.readout_tag_detector")
            else uniforms(seed, reps, stream)))
        n = 3
        signal = np.zeros((n, 6), np.uint8)
        background = np.zeros((n, 6), np.uint8)
        for k in range(3):
            signal[k, click_cell(0, k, 1)] = 1
            background[k, click_cell(0, k, k % 2)] = 1
        tags = _clicks(windows, np.arange(n), signal, background=background,
                       readout=np.ones(n, bool)).to_tags()
        path = tmp_path / "tags.csv"
        export_timetags(path, tags)
        back = ingest_timetags(path)
        codes = _reference_codes(windows, tags.time)
        assert sorted(codes.tolist()) == [EARLY] * 2 + [MIDDLE] * 2 + [LATE] * 2 + [READOUT] * 3
        assert np.array_equal(_reference_codes(windows, back.time), codes)

    @pytest.mark.parametrize("signal_clicks, flagged_clicks", [(9, 0), (5, 4)])
    def test_ninth_click_in_a_cell_rejected(self, signal_clicks, flagged_clicks):
        # a cell's tag times draw on a block of 8 streams; a ninth click
        # would draw on the next cell's first stream
        from types import SimpleNamespace

        from timebin.detection import RunClicks

        n = 3
        signal = np.zeros((n, 6), np.uint8)
        flagged = np.zeros((n, 6), np.uint8)
        cell = click_cell(0, MIDDLE, 0)
        signal[1, cell] = signal_clicks
        flagged[1, cell] = flagged_clicks

        def clicks():
            return RunClicks(SimpleNamespace(windows=WindowConfig.for_sequence(1)),
                             SimpleNamespace(rep_indices=np.arange(n, dtype=np.uint64)),
                             [], np.zeros(n, np.int8), np.ones(n, bool),
                             np.zeros(n, bool), signal, flagged,
                             np.zeros((n, 6), np.uint8), 11)

        with pytest.raises(ContractError):
            clicks().to_tags()
        flagged[1, cell] = 0
        signal[1, cell] = 8
        assert len(clicks().to_tags()) == 8 + n     # 8 wavepacket, n readout


class TestBlinking:
    def test_blinking_bunches_short_delays(self):
        # charge blinking modulates emission on a block scale: coincidences
        # at short repetition delays exceed the long-delay average
        import dataclasses
        noise = dataclasses.replace(paper_noise(), blink_block_len=40,
                                    blink_on_fraction=0.7)
        run, arr = hom_run(paper_emitter(), noise, paper_tbi(), 60_000, 21)
        n_reps = int(arr.repetition.max()) + 1
        from timebin.coincidence import _window_counts
        from timebin.interferometer import Window
        reps, c1, c2 = _window_counts(arr, _reference_codes(run.windows, arr.time) & 3,
                                      Window.EARLY)
        n1, n2 = np.zeros((2, n_reps), np.int64)
        n1[reps], n2[reps] = c1, c2
        short = float(np.sum(n1[:-1] * n2[1:]) + np.sum(n2[:-1] * n1[1:])) / 2
        far = 0.0
        k = 0
        for d in range(150, 200):
            far += float(np.sum(n1[:-d] * n2[d:]) + np.sum(n2[:-d] * n1[d:])) / 2
            k += 1
        assert short > 1.15 * far / k


def _clicks(windows, reps, signal, flagged=None, background=None, readout=None, seed=11):
    """RunClicks of hand-built count rows for repetitions reps."""
    from types import SimpleNamespace

    from timebin.detection import RunClicks

    n = len(reps)
    zeros = np.zeros_like(signal)
    return RunClicks(SimpleNamespace(windows=windows),
                     SimpleNamespace(rep_indices=np.asarray(reps, np.uint64)), [],
                     np.zeros(n, np.int8),
                     np.zeros(n, bool) if readout is None else readout, np.zeros(n, bool),
                     signal, zeros if flagged is None else flagged,
                     zeros if background is None else background, seed)


def _same_tags(got, want):
    for name in ("detector", "time", "repetition"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBlocks:
    """The tag path works in blocks of repetitions (`simulate_hom`,
    `RunClicks.to_tags` of a block) and of tags (`_in_order`,
    `hom_counts_from_tags`); with small blocks it gives what one block over
    everything gives."""

    @pytest.mark.parametrize("block", [1, 7, 500, 1999])
    def test_to_tags_hom(self, monkeypatch, block):
        # the blocks' tags, joined, are those of one block over the run, and
        # the g2 and HOM sums, carried across the block edges, are the same
        from timebin import experiments

        args = paper_emitter(), paper_noise(), paper_tbi(), 4000, 5
        whole_run, whole = hom_run(*args)
        monkeypatch.setattr(experiments, "BLOCK_REPS", block)
        run, got = hom_run(*args)
        _same_tags(got, whole)
        assert run == whole_run
        assert len(got) > 4000

    def test_to_tags_block_edges(self):
        # runs on interleaved and shuffled repetitions, with several tags in
        # a repetition, repetitions without any click and repetitions that
        # one run lacks: their tags merged into one order
        windows = WindowConfig.for_sequence(1)
        rng = np.random.default_rng(4)
        n = 48
        signal = rng.integers(0, 3, (n, 6)).astype(np.uint8)
        background = np.zeros((n, 6), np.uint8)
        background[rng.random(n) < 0.3, 2] = 1
        readout = rng.random(n) < 0.5
        signal[7] = signal[8] = 3
        readout[7] = readout[8] = True
        signal[16:24] = 0
        background[16:24] = 0
        readout[16:24] = False
        reps = np.arange(n)
        whole = _clicks(windows, reps, signal, background=background,
                        readout=readout).to_tags()
        halves = [(reps[k::2], signal[k::2], background[k::2], readout[k::2])
                  for k in (0, 1)]
        # the second run's rows shuffled, and none of its repetitions from 30
        # to 39: the block of 32..39 has rows of the first run only
        perm = np.random.default_rng(5).permutation(len(halves[1][0]))
        halves[1] = tuple(a[perm] for a in halves[1])
        keep = (halves[1][0] < 30) | (halves[1][0] >= 40)
        halves[1] = tuple(a[keep] for a in halves[1])
        runs = [_clicks(windows, r, s, background=b, readout=o) for r, s, b, o in halves]
        dropped = np.isin(whole.repetition, np.arange(31, 40, 2))
        want = TagArrays(*(getattr(whole, name)[~dropped]
                           for name in ("detector", "time", "repetition")))
        _same_tags(runs[0].to_tags(2.54, runs[1:]), want)
        _same_tags(runs[1].to_tags(2.54, runs[:1]), want)

    def test_to_tags_lone_run(self):
        # a lone run's arrays are read, not copied: to_tags leaves them as
        # they were and gives the tags of a merge with a run of no repetitions
        windows = WindowConfig.for_sequence(1)
        rng = np.random.default_rng(6)
        n = 200
        signal = rng.integers(0, 3, (n, 6)).astype(np.uint8)
        flagged = (rng.random((n, 6)) < 0.1).astype(np.uint8)
        background = np.zeros((n, 6), np.uint8)
        background[rng.random(n) < 0.3, 3] = 1
        clicks = _clicks(windows, np.arange(1000, 1000 + n), signal, flagged, background,
                         rng.random(n) < 0.5)
        names = ("signal", "flagged", "background", "readout_signal", "readout_leak")
        before = {name: getattr(clicks, name).copy() for name in names}
        reps = clicks.trajectory.rep_indices.copy()
        tags = clicks.to_tags()
        for name in names:
            assert np.array_equal(getattr(clicks, name), before[name]), name
        assert np.array_equal(clicks.trajectory.rep_indices, reps)
        empty = _clicks(windows, [], np.zeros((0, 6), np.uint8))
        _same_tags(tags, clicks.to_tags(2.54, [empty]))
        assert len(tags) > n

    def test_to_tags_none(self):
        windows = WindowConfig.for_sequence(1)
        clicks = _clicks(windows, np.arange(10), np.zeros((10, 6), np.uint8))
        other = _clicks(windows, np.arange(10, 20), np.zeros((10, 6), np.uint8))
        tags = clicks.to_tags(2.54, [other])
        assert len(tags) == 0 and tags._ordered
        assert (tags.detector.dtype, tags.time.dtype, tags.repetition.dtype) == (
            np.int8, np.float64, np.int64)

    def test_to_tags_rejects_other_windows(self):
        clicks = _clicks(WindowConfig.for_sequence(1), np.arange(3),
                         np.ones((3, 6), np.uint8))
        other = _clicks(WindowConfig.for_sequence(2), np.arange(3, 6),
                        np.ones((3, 12), np.uint8))
        with pytest.raises(ContractError, match="share their windows"):
            clicks.to_tags(2.54, [other])

    @pytest.mark.parametrize("column", ["repetition", "time", "detector"])
    @pytest.mark.parametrize("at", [0, 15, 16, 17, 63])
    def test_in_order_block_edges(self, monkeypatch, column, at):
        # a pair out of order at, before and after the edges of blocks of 16
        from timebin import coincidence
        from timebin.coincidence import _in_order

        monkeypatch.setattr(coincidence, "SCAN_BLOCK", 16)
        n = 64
        rep = np.repeat(np.arange(16), 4).astype(np.int64)
        time = np.tile([1.0, 2.0, 2.0, 3.0], 16)
        det = np.tile(np.array([0, 0, 1, 0], np.int8), 16)
        assert _in_order(TagArrays(det, time, rep))
        columns = {"repetition": rep, "time": time, "detector": det}
        # the tags at-1 and at with the same repetition, time and detector
        # up to the changed column, which falls
        i = max(at, 1)
        rep[i - 1] = rep[i]
        time[i - 1] = time[i]
        det[i - 1] = det[i]
        columns[column][i - 1] = columns[column][i] + 1
        tags = TagArrays(det, time, rep)
        assert not _in_order(tags)
        monkeypatch.setattr(coincidence, "SCAN_BLOCK", n)
        assert not _in_order(tags)
        assert _in_order(TagArrays(det[:i - 1], time[:i - 1], rep[:i - 1]))

    @pytest.mark.parametrize("windows", [WindowConfig(), WindowConfig.for_sequence(2)])
    def test_codes(self, monkeypatch, windows):
        from timebin import coincidence
        from timebin.coincidence import _analysis_view

        monkeypatch.setattr(coincidence, "SCAN_BLOCK", 7)
        view, code = _analysis_view(TestHomPairCounting()._tags(windows, 300, 5), windows)
        assert np.array_equal(code, _reference_codes(windows, view.time))

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_hom_counts(self, monkeypatch, block):
        # with blocks of a few tags, up to nine tags in a repetition: every
        # repetition's tags stay in one block, however long
        from timebin import coincidence

        for windows in (WindowConfig(), WindowConfig.for_sequence(2)):
            tags = TestHomPairCounting()._tags(windows, 300, 23)
            whole = hom_counts_from_tags(tags, windows, 10.5)
            monkeypatch.setattr(coincidence, "SCAN_BLOCK", block)
            assert hom_counts_from_tags(tags, windows, 10.5) == whole
            assert whole == _reference_hom_counts(tags, windows, 10.5)
            monkeypatch.setattr(coincidence, "SCAN_BLOCK", 1 << 17)

    def test_hom_counts_simulated(self, monkeypatch):
        from timebin import coincidence

        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), 6000, 2)
        for block in (3, 1000):
            monkeypatch.setattr(coincidence, "SCAN_BLOCK", block)
            assert hom_counts_from_tags(tags, run.windows) == run.hom_counts

    def test_peak_memory(self, monkeypatch):
        # the g2 and HOM sums of tags in 20 blocks hold the window codes and
        # a few blocks' temporaries, not temporaries the size of all the tags
        import tracemalloc

        from timebin import coincidence

        n = 40_000
        run, tags = hom_run(paper_emitter(), paper_noise(), paper_tbi(), n, 5)
        tags = TagArrays(tags.detector, tags.time, tags.repetition)
        tags_per_rep = 2.4
        assert abs(len(tags) / n - tags_per_rep) < 0.1
        monkeypatch.setattr(coincidence, "SCAN_BLOCK", int(tags_per_rep * n // 20))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            counts = hom_counts_from_tags(tags, run.windows)
            g2 = g2_zero(tags, run.windows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (counts, g2) == (run.hom_counts, (run.g2, run.g2_err, run.g2_detail))
        # the window codes cached on the tags are one byte a tag
        block = sum(a.nbytes for a in (tags.detector, tags.time, tags.repetition)) / 20
        assert peak < len(tags) + 4 * block, (peak, block)
