"""The tensor assembly: pinned outputs, an independent top-degree oracle,
the a priori window and the frame policy of ``CorrStore.compute``."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from eorec import (Conventions, CorrStore, PeelError, WindowError, format_rational,
                   window_policy)

from wk import wk

CONV = Conventions(sigma_kernel=-1, sigma_psirec=1)

#: every stable W(g,h) with 2g-2+h <= 5
TARGETS = [(g, h) for g in range(4) for h in range(1, 8)
           if 1 <= 2 * g - 2 + h <= 5 and (g, h) not in ((0, 1), (0, 2))]

#: SHA-256 of each tensor, recorded from the Laurent-product assembly that
#: the table contraction replaced; (f, g, h) -> digest of ``_digest``
PINNED = {
    (1, 0, 3): "3a705fd7bdec782b9105f992e8b8890e967dfb587fc8c01e3b1e656d0b205fc6",
    (1, 1, 1): "52287fb2986f415e15fe512bfdb75291c443eaacea81a8d75b55b69c16853d96",
    (1, 0, 4): "939de268c613b405b346d882af9db924290758b958ce3b2d1aba03751b4a5f16",
    (1, 1, 2): "b90cde9e4614d002136fce5e7463067552e9d3270d22a8511edb763e7a50deeb",
    (1, 0, 5): "456697304641bef064e59ddce711fba2a2d0dd9d5580ec8056ae74f3e5579d43",
    (1, 1, 3): "2bcf95e5f19fba261038f35e8f84635acc06688105eb4ae0724b2d62f3b60aae",
    (1, 2, 1): "7f1a2987af9b6fa3f73c00862e74fa4109e8a2fecd41cbfe6535dc6b1e91a051",
    (1, 0, 6): "21a6f21a1f67d7e0ba271abf37936ef9a4c2b156fd84e629b302040cc82619d5",
    (1, 1, 4): "47976620f0349553c951d4febabc0e0531c25efe86600f939c87a5bf314f0fa0",
    (1, 2, 2): "4848dbbf8b0b3071e2f16d3a03361e6be4366af626c55db47991a576a022c427",
    (1, 0, 7): "7369b04dfec75c47a82e8c0c385b2f35a7fd67f290b23769d2f1d4442d894b17",
    (1, 1, 5): "5eba9904bf37ed0b50eb63670b45575af30013318966f3718389d0f736b738cc",
    (1, 2, 3): "e7fa87a3e995e3048557571c4cfdd915d111d831e16e89d58278200dcd984687",
    (1, 3, 1): "11dd905a3748dddca9392075213f56382dd99ab07946b3c6a51f502dc9aa1087",
    (2, 0, 3): "9088192cba7aed055153e6780980c670a44f475e39494d4147a9bf3b46866001",
    (2, 1, 1): "dc6ab84001d860e06ca0763d62ab87487b33a57f1687502bba85a24ee53a21f6",
    (2, 0, 4): "53c988e60ac5dcd34d0caa89c9aec76c87b86f73f28346e25995b95a0eddbf6c",
    (2, 1, 2): "99c1ebd326ba6c2aecf493a010caf9e592222536023f3d13a4e37ebf8cd5b8ef",
    (2, 0, 5): "fb3671e7ed9fabfd645b3700016ffb0be5df1d484685f517fd195018b706f6a4",
    (2, 1, 3): "47c29c13e8754d7b014984aaa59e49b3a938790452bbfaab1ae3176464fa1277",
    (2, 2, 1): "061323516b61311b500b8eb4f77da8b06482918699db3328c719ee4d90397ac2",
    (2, 0, 6): "77315549889ed9da52328fb1c91081bae58cb98f116d61390ef30dc5c1bba561",
    (2, 1, 4): "684021a867dfd3975eb060d853e3400212ec370f8378f8dca90102bc0ac8b848",
    (2, 2, 2): "3469522a7e737ea5fc24547c62f07dd71f656325e215002cf4b8697911653193",
    (2, 0, 7): "c2513b3f59aab5973a586788d1b4ff739dace41807a0b483659d3e03195e714f",
    (2, 1, 5): "c5b56ae93a401d97bafeb5e68162343f9db5cd0471a63279d45e889b024eee0c",
    (2, 2, 3): "6c2f5c49eab0b239486724f583f7fcf72416b58c21726df3f56bb8eb410b92c3",
    (2, 3, 1): "5a74cef83d6e64d66fa39bfd6f5d3183afc37b80de4115d8e0fbe47dccaf0b11",
    (3, 0, 3): "aaa0d983dc11dedb0c185321b0b516f771942a530ca84ab050d6d669bc673388",
    (3, 1, 1): "e1ba2c75789294c110ca4215dc55296856b2a1aac079d34b3c9cf4ea096579d4",
    (3, 0, 4): "12e219b2ff9f7a4ae7a4b3ad6d414c0671a2598f43a147f28baa2b026cadb107",
    (3, 1, 2): "acdfe4f8c7f1d505b91a870f4b0443d5922b2317ae72ce02ddde8afa5a94d02a",
    (3, 0, 5): "b1bf5c6067cd3f744704ea8fbc990f13e37b5b310afd340723abb707c2dae643",
    (3, 1, 3): "3bb468623bf2c6c73e808d46de530541b97f64d6d7c2e2a1633c33cfb557dcb1",
    (3, 2, 1): "b2c3457559dea24b9a95fbdeac596ba69ab439feab776e1a3c33749bd8cb9e2f",
    (3, 0, 6): "8c5935c092eb9aa7a2233edad3aaaf585fa9d211ad5d4dfb54699829dd58a221",
    (3, 1, 4): "07c9f2993665c50fbbd92976f0b4ddce8623b603f468881ce91890120df82309",
    (3, 2, 2): "2f5fb5b78367b21a046418d471d3b4669f57cfa7a2bb94940f2bd116295db500",
    (3, 0, 7): "9012c70d4ba7998c326f730068508da77afb792f50687865a4ff1cd3619084d1",
    (3, 1, 5): "c767b7d27c2b0e908adcd45e0a98e7c2b7a17a2882c2a3aa78f5be933281ef9a",
    (3, 2, 3): "3ed7713501032e1ff60eb2b97f15c56d29c575f682f427c086892c778d644f62",
    (3, 3, 1): "a0c5cf0c7c7362caff87cecf92d039ecd9579ba176d933d13ab02863745e859c",
}


def _digest(coeffs: dict) -> str:
    blob = json.dumps([[list(k), format_rational(v)] for k, v in sorted(coeffs.items())],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sorted_tuples(length: int, total: int, top: int | None = None):
    """Non-increasing tuples of non-negative integers with the given sum."""
    if length == 0:
        if total == 0:
            yield ()
        return
    top = total if top is None else min(top, total)
    for first in range(top, -1, -1):
        for rest in _sorted_tuples(length - 1, total - first, first):
            yield (first,) + rest


def test_targets_cover_the_pinned_range():
    assert sorted(TARGETS) == sorted({(g, h) for (_, g, h) in PINNED})
    assert len(PINNED) == 3 * len(TARGETS)


@pytest.mark.parametrize("g,h", TARGETS)
def test_pinned_digests(stores, g, h):
    for store in stores:
        assert _digest(store.correlator(g, h).coeffs) == PINNED[(store.f, g, h)]


@pytest.mark.parametrize("g,h", TARGETS)
def test_top_degree_is_witten_kontsevich(stores, g, h):
    """Entries with total index 3g-3+h are (-1)^h (f(f+1))^(g+h-1) <tau...>_g."""
    degree = 3 * g - 3 + h
    for store in stores:
        w = store.correlator(g, h)
        scale = (-1) ** h * Fraction(store.f * (store.f + 1)) ** (g + h - 1)
        for idx in _sorted_tuples(h, degree):
            key = tuple(sorted(idx))
            assert w.coeff(key) == scale * wk(g, idx), (store.f, key)


@pytest.mark.parametrize("g,h", [t for t in TARGETS if window_policy(*t) > 4])
def test_policy_window_is_tight(stores, g, h):
    """One term less than the dimension bound asks for and a kernel
    coefficient the tables read is no longer certified."""
    for store in stores:
        store.correlator(g, h)
        probe = CorrStore(store.f, store.conventions)
        probe.table = dict(store.table)  # lower tensors only; no frame
        with pytest.raises(WindowError):
            probe._compute_at(g, h, window_policy(g, h) - 1)


def test_compute_runs_once_per_target_on_one_frame(monkeypatch):
    calls = []
    real = CorrStore._compute_at

    def spy(self, g, h, window):
        calls.append((g, h, window))
        return real(self, g, h, window)

    monkeypatch.setattr(CorrStore, "_compute_at", spy)
    CorrStore(1, CONV).compute(2, 2)
    assert calls[0] == (2, 2, window_policy(2, 2))
    assert set(Counter((g, h) for g, h, _ in calls).values()) == {1}
    assert {w for _, _, w in calls} == {window_policy(2, 2)}


@pytest.mark.parametrize("error", [PeelError, WindowError])
def test_assembly_errors_propagate_unchanged(monkeypatch, error):
    raised = error("assembly failed")

    def failing(self, g, h, window):
        raise raised

    monkeypatch.setattr(CorrStore, "_compute_at", failing)
    with pytest.raises(error) as exc:
        CorrStore(1, CONV).compute(2, 1)
    assert exc.value is raised


def test_explicit_window_builds_its_own_frame():
    store = CorrStore(1, Conventions(sigma_kernel=-1, sigma_psirec=1))
    store.correlator(2, 1)
    built = set(store._frames)
    assert built == {window_policy(2, 1)}
    # the default path reuses the wider frame for a smaller target
    store.compute(1, 1)
    assert set(store._frames) == built
    # an explicit window is a real recomputation on a frame of that size
    wide = window_policy(1, 1) + 4
    assert wide not in built
    got = store.compute(1, 1, window=wide)
    assert set(store._frames) == built | {wide}
    assert got.coeffs == store.correlator(1, 1).coeffs
