"""The stream-id table of the counter-based generator."""
import pytest

from timebin import rng as crng
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.errors import ContractError
from timebin.experiments import _witness_subruns, witness_trajectory


def ghz_stream_keys(n_qubits: int) -> list[tuple[str, int]]:
    """Every (namespace, offset) a GHZ witness run of n_qubits can request,
    tag expansion included."""
    steps = max((run.sequence.steps for run in
                 _witness_subruns(n_qubits, paper_emitter(), paper_tbi())), key=len)
    n_excite = sum(op.kind == "excite" for op in steps)
    n_windows = 3 * (n_qubits - 1)
    keys = [("emitter.step", i) for i in range(len(steps) - 1)]
    keys += [(name, 0) for name in ("emitter.blink", "detection.pattern",
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
    run = witness_trajectory(3, paper_emitter(), paper_noise(), paper_tbi(), 6000, 3,
                             keep_clicks=True)
    for clicks in run.clicks:
        clicks.to_tags()
    enumerated = {crng.stream(name, offset) for name, offset in ghz_stream_keys(3)}
    assert len(requested) > 20
    assert requested <= enumerated


def test_offset_outside_namespace():
    assert crng.stream("detection.leak", 3) == 22_003
    for name, offset in (("detection.leak", 2_000), ("detection.pattern", 1),
                         ("emitter.step", -1)):
        with pytest.raises(ContractError):
            crng.stream(name, offset)


def test_ids_unchanged():
    # the table keeps the hand-allocated ids, so sampled runs do not move
    assert [crng.stream("emitter.step", 3), crng.stream("emitter.blink"),
            crng.stream("fringe.photon"), crng.stream("detection.pattern"),
            crng.stream("detection.readout"), crng.stream("detection.readout_leak"),
            crng.stream("detection.leak_detector", 2), crng.stream("detection.tag", 17),
            crng.stream("detection.flagged", 1), crng.stream("detection.background_tag", 4),
            crng.stream("detection.readout_tag_detector"),
            crng.stream("detection.readout_tag")] == \
        [103, 7001, 41, 20_000, 21_000, 21_500, 24_002, 26_017, 28_001, 31_004,
         35_998, 35_999]
