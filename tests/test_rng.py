"""The counter-based generator: its draws and its stream-id table."""
import numpy as np
import pytest

from timebin import rng as crng
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.errors import ContractError
from timebin.experiments import _witness_subruns, witness_trajectory


def ghz_stream_keys(n_qubits: int) -> list[tuple[str, int]]:
    """Every (namespace, offset) a GHZ witness run of n_qubits can request,
    tag expansion included."""
    steps = max((run.sequence.steps for run in
                 _witness_subruns(n_qubits, paper_emitter())), key=len)
    n_excite = sum(op.kind == "excite" for op in steps)
    n_windows = 3 * (n_qubits - 1)
    # every step's branch, the readout's spin projection included
    keys = [("emitter.step", i) for i in range(len(steps))]
    # each photon slot's detection
    keys += [("detection.slot", k) for k in range(n_qubits - 1)]
    keys += [(name, 0) for name in ("emitter.blink",
                                    "detection.readout", "detection.readout_leak",
                                    "detection.readout_tag",
                                    "detection.readout_tag_detector")]
    for name in ("detection.leak", "detection.leak_detector",
                 "detection.background_tag"):
        keys += [(name, k) for k in range(n_windows)]
    # wrong-transition and re-excitation photon of every excitation
    keys += [("detection.flagged", e) for e in range(2 * n_excite)]
    # 8 ordinals per cell, 2 cells per window
    keys += [("detection.tag", k) for k in range(8 * 2 * n_windows)]
    return keys


def test_namespaces_disjoint():
    spans = sorted((base, base + width, name)
                   for name, (base, width) in crng.STREAMS.items())
    for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
        assert end <= start, (a, b)


def test_ghz5_ids_disjoint():
    keys = ghz_stream_keys(5)
    ids = [crng.stream(name, offset) for name, offset in keys]
    assert len(set(keys)) == len(keys)
    assert len(set(ids)) == len(ids)


def test_keys_cover_a_run(monkeypatch):
    # a GHZ-3 run with tag expansion requests only enumerated streams
    requested = set()
    uniforms = crng.uniforms

    def recording(master_seed, reps, stream):
        requested.add(stream)
        return uniforms(master_seed, reps, stream)

    monkeypatch.setattr(crng, "uniforms", recording)
    blocks = []
    witness_trajectory(3, paper_emitter(), paper_noise(), paper_tbi(), 6000, 3,
                       on_block=blocks.append)
    for clicks in blocks[0]:
        clicks.to_tags()
    enumerated = {crng.stream(name, offset) for name, offset in ghz_stream_keys(3)}
    assert len(requested) > 20
    assert requested <= enumerated


def test_offset_outside_namespace():
    assert crng.stream("detection.leak", 3) == 22_003
    for name, offset in (("detection.leak", 2_000), ("detection.slot", 1_000),
                         ("emitter.step", -1)):
        with pytest.raises(ContractError):
            crng.stream(name, offset)


def test_ids_unchanged():
    # the table keeps the hand-allocated ids, so sampled runs do not move
    assert [crng.stream("emitter.step", 3), crng.stream("emitter.blink"),
            crng.stream("fringe.photon"), crng.stream("detection.slot"),
            crng.stream("detection.readout"), crng.stream("detection.readout_leak"),
            crng.stream("detection.leak_detector", 2), crng.stream("detection.tag", 17),
            crng.stream("detection.flagged", 1), crng.stream("detection.background_tag", 4),
            crng.stream("detection.readout_tag_detector"),
            crng.stream("detection.readout_tag")] == \
        [103, 7001, 41, 20_000, 21_000, 21_500, 24_002, 26_017, 28_001, 31_004,
         35_998, 35_999]


def _mix(x):
    x = (x ^ (x >> np.uint64(30))) * crng._M1
    x = (x ^ (x >> np.uint64(27))) * crng._M2
    return x ^ (x >> np.uint64(31))


def reference_uniforms(master_seed, reps, stream):
    """The whole-array form of `uniforms`: mix(mix(x)) over every draw at
    once."""
    with np.errstate(over="ignore"):
        key = (np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + crng._GAMMA) * crng._M1
        key = key ^ (np.uint64(stream) * crng._STREAM_SALT)
        x = np.asarray(reps, dtype=np.uint64) * crng._GAMMA + key
        bits = _mix(_mix(x))
    return (bits >> np.uint64(11)).astype(np.float64) * crng._U53


class TestBlockedUniforms:
    """`uniforms` evaluates the hash in place, block by block; the
    whole-array expression is the reference, bit for bit."""

    @pytest.mark.parametrize("master_seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("stream", [crng.stream("emitter.step", 2),
                                        crng.stream("detection.readout_tag")])
    def test_matches_whole_array_form(self, master_seed, stream):
        all_reps = np.arange(400_003, dtype=np.uint64)
        cases = [all_reps[:n] for n in (0, 1, 16_383, 16_384, 16_385, 400_003)]
        # the strided sub-run slices witness_trajectory passes, and an offset
        # array in descending order
        cases += [all_reps[k::6] for k in (0, 5)] + [all_reps[::7][::-1] + np.uint64(3)]
        for reps in cases:
            got = crng.uniforms(master_seed, reps, stream)
            want = reference_uniforms(master_seed, reps, stream)
            assert got.dtype == np.float64 and got.shape == reps.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), reps.size

    def test_pinned_draws(self):
        # anchors the reference itself
        for master_seed, rep, stream, bits in (
                (0, 0, 100, 4605267283486849085),
                (1, 12345, 20_000, 4605767510894764883),
                (2**64 - 1, 400_002, 35_999, 4586283801356033792)):
            reps = np.array([rep], dtype=np.uint64)
            for draw in (crng.uniforms(master_seed, reps, stream),
                         reference_uniforms(master_seed, reps, stream)):
                assert draw.view(np.uint64)[0] == bits
