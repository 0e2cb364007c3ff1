"""The tensor assembly: pinned outputs, an independent top-degree oracle,
the a priori window, the frame policy of ``CorrStore.compute``, the integer
residue tables against their ``Fraction`` construction, the free-slot
symmetry check and the canonical integer form of every stored tensor."""

import hashlib
import inspect
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from eorec import (Conventions, CorrStore, PeelError, WindowError,
                   format_rational, window_policy)
from eorec import recursion
from eorec.cache import CorrCache

from oracles import FractionTables
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


#: every stable W(g,h) with 6 <= 2g-2+h <= 8 at f = 1, 2, 3, and W(0,11) and
#: W(1,9) at f = 1: digests recorded from the contraction that expanded every
#: lower tensor into its orderings, before the switch to sorted tails (that
#: run also reproduced all of PINNED).  W(5,1) and W(6,1) at f = 1, 2, 3, the
#: rest of the range ``free-energy --g-max 6`` serves, were recorded from the
#: contraction that read R[a,b] once per term, before the bracket gathered
#: the terms; (f, g, h) -> digest of ``_digest``
PINNED_DEEP = {
    (1, 0, 8): "5b62d3f980fa3c6724cd588cc25b1a10248802ba432a40a6671c52d43ddfc655",
    (1, 0, 9): "3a4d127cb62cef42eb9f17e81a8ff5c3fe2834375a09f0adad303dae8e9ae2f5",
    (1, 0, 10): "3c3bff9926a4c76967cad86d0382531dedd28faef16a1622952e7ecff99dd51b",
    (1, 0, 11): "76caea8cb9b8b2b9142fd2e067cc34ca9c4257b1a70da59ecc95d5273e848af8",
    (1, 1, 6): "2586ccc89067258a0fd0b5e86242314532ab9f7e6d28ddd5acaaf49c8d5b6489",
    (1, 1, 7): "c36ee13a403de804ac5f531a45adfeafeaa7833b541d8f8bcee1a09e832812fe",
    (1, 1, 8): "4a4f2253f4c3789db18f01df1f0999190cb768287e6bb45c94e9d9e72cb605b7",
    (1, 1, 9): "27b5f50b86cdcad172c9ae2f771dcc54ec1275f871be8cee1a6c943ae049b0bd",
    (1, 2, 4): "a97bbfad1b9693324067ddc761f6f251c0cc0b624a223fbdf44d4e06d32b709a",
    (1, 2, 5): "4154a81a98f88ced1f5b0286f9078f8449923bb073ec95fc0cd87ed423d9b506",
    (1, 2, 6): "9ba9fe731e76e9bef49aee679725f109eb7d4c00b368826072b3efcde02b488c",
    (1, 3, 2): "4643d95166eb1d36efa60c0f327a1f825fdd65bc0f2d43c3a099b00d505b31a6",
    (1, 3, 3): "b7c8a52bae49c3e590b3f6ef3df1d254b0219a7e7f73e6f6d76e98ef21fbad01",
    (1, 3, 4): "f9070a9f6587e5159d53163205d949321a59ae39788bbe93835550fdac2051d9",
    (1, 4, 1): "9714542a01a84174fa9403a772019e360cfb9dd07c92c9d32d05875437f11bdc",
    (1, 4, 2): "56a8231d343de0db8d80c028da31ff4f81d6c6cb15d7ebe6cc037c36cfa25103",
    (2, 0, 8): "ed4be4ebbab125958a31d6a647438a5b318fedfeae8d32e02d40e125b6d3c76f",
    (2, 0, 9): "4cc305eb69ca8e4037689873a8322ed450631fc5b2a981e46ea074657778506e",
    (2, 0, 10): "63519fb07693e043fb41f65688ebf4f8f54c92888e2b54e85aecb34a473d15d2",
    (2, 1, 6): "37aa5b8568d8a5cc735b087ecb343c2e0f3d248d4ccac4b367c48dce13a49867",
    (2, 1, 7): "5f94c6b0fd49b7d6d8f890336b312a41e60df3ccc83680d7a33b2fd9db65b973",
    (2, 1, 8): "d2eb341c9c54c83b1c0c351dd3c44c9769f899067a685e75a516828f8451fef7",
    (2, 2, 4): "cdb7c292e7cf0688d0a41aee7c82038a8ff737c5e23a615ff1b5116a70a6bf17",
    (2, 2, 5): "6d5b3766b96bfb240b0f2469bf4a5ac46f49392292900e7466cbb426fbf678ff",
    (2, 2, 6): "1bd889b8e2186562a127399aa2dcac185c4b9cb29be2d3e86654af2bc8a87419",
    (2, 3, 2): "7298f7e9aedf1dfd3e5c3ad3c06e83fdd07a6470d3dcffda17f0c86ce2ffcc15",
    (2, 3, 3): "fdc8279ab92457775f9424cfdd5b33e28da53beabe3acf7869376c664a1af856",
    (2, 3, 4): "31421314942e3394864e1775dd79701ae602bc0b108f84b83ac4ad55dd7c2f48",
    (2, 4, 1): "81658847cd23bed2af3c6b9f7c6b4d87d5c49436c08579ead90981d28dd36640",
    (2, 4, 2): "e341942fc8dfd78efffb19b0bd63608cbec574d29430c40af002d0954f84df48",
    (3, 0, 8): "821bca66def4f4d524e30a89d3f57f8c4366e5309fad6bd4999f257c14b9f436",
    (3, 0, 9): "c7ee25aecac7abcbf51e03df2c79c03a786a1033a9ad776eb99910d8cef19c49",
    (3, 0, 10): "f69a0e12e138cd05c44fef52bd7048e64237e6ca35e4a452c57ca8e4b10324fd",
    (3, 1, 6): "970107a1945873ca898306213c278a2e038e7e75088713b61b25291da30ded9b",
    (3, 1, 7): "70e8fb46a159b6354ca28bf218d5a5df9af9e44d1b23081e7638c286d13b502f",
    (3, 1, 8): "48c7ba264acb7c2380d75d6383936a2f4e054e488ae075a80109106e31d24187",
    (3, 2, 4): "373f0df7a884d0578ddfd7746d2c9cddd1d3c103bb81f08ee53fab6e10ddf179",
    (3, 2, 5): "a38a9ae71331dbe880d2f9170b27fc281156300ec0fa39416819b43803373b56",
    (3, 2, 6): "fe94c5a953bc73f83438ee6adfbb00a69315afe4d0d615e67c6f3c26099ad05e",
    (3, 3, 2): "6320601b943f4afeec6b470bac8c57adc3539ed4f54086536ae1753c625253e9",
    (3, 3, 3): "5d4832a6ec2e2fed7f49202f7a08dcce814e4317ee5e2b7645b056bcd9799272",
    (3, 3, 4): "0dfe10e9d6165f27a39fab02258e4a742734f432e2496482496e8cb99c19f1ae",
    (3, 4, 1): "f63c6ab5803cf609af76e597ebd2094ef909a6f5eba93cea5115df6f79553de5",
    (3, 4, 2): "70051c17e753a762866e0ae8b3cb3b982b16c798ff252a8eba84cb9f0702e8d5",
    (1, 5, 1): "b11b6dce0560098845862d3c04fa9ae0672a88dda85a0a8217d73fab0b417079",
    (1, 6, 1): "6973173cb61323fec24126af1688205d6f627ae1e04c99d94ed3c3bd0526c4d9",
    (2, 5, 1): "befe6a3e28e5f9162699eefd48c7cc2624a03a5d6637671e8cc7f1ae42018a9d",
    (2, 6, 1): "b6ae5326691c3e97640098ba7d256fd9e3ce749e049c28a5d9b9b7068e673465",
    (3, 5, 1): "2dcd03f72134cc1b57fd1547b2f97558c83ef9512ccf5681ce4a10b75f2e7b4e",
    (3, 6, 1): "137ecf9b5f0e00b114826244f50bd8fc22911c27e8b6f7718da4cc743dad8b2a",
}


#: W(7,1) and W(8,1) at f = 1, 2, 3, past the command line's genus cap, and
#: W(4,6) at f = 1, with 2g-2+h = 12 past the ``correlator`` bound: digests
#: recorded from the contraction that read lower tensors grouped by leg,
#: before it grouped them by tail; (f, g, h) -> digest of ``_digest``
PINNED_PAST_CAP = {
    (1, 4, 6): "005e08b92ce335d702dee752ad13da06c62c531526f44bdf4a080f65a59690a8",
    (1, 7, 1): "a6eb1b59ef22189aa2b0cf55396b343970ecc1938d1224ed21151a312f89af68",
    (1, 8, 1): "36df4b6a173818705be2b56d4192758fb4abad0994aa9a357dfc2abb8a600403",
    (2, 7, 1): "d73cd0954e8e56f4f7372d8ce47a8d39bbcb7aeb5474c0797b6cbbabee2ca5c2",
    (2, 8, 1): "fde410e4806b0a0b2a4d526fc4bcc4526db99687d5ba5241d2f1d61504d3c622",
    (3, 7, 1): "15c12e5eb85742d0f59a054581818478d861248ffb6eee3fd67b97e6c58fa04b",
    (3, 8, 1): "d289d43bc6a6c972cf782736635aa260d120a99a3a78ee1f1243a8c67bf73dd8",
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
def test_pinned_digests(stores, audit_stores, g, h):
    for store in stores + audit_stores:
        assert _digest(store.correlator(g, h).coeffs) == PINNED[(store.f, g, h)]


def test_deep_table_covers_its_range():
    want = {(f, g, h) for f in (1, 2, 3) for g in range(5) for h in range(1, 11)
            if 6 <= 2 * g - 2 + h <= 8}
    deepest = {(f, g, 1) for f in (1, 2, 3) for g in (5, 6)}
    assert set(PINNED_DEEP) == want | deepest | {(1, 0, 11), (1, 1, 9)}


@pytest.mark.parametrize("f,g,h", sorted(PINNED_DEEP))
def test_pinned_deep_digests(stores, audit_stores, f, g, h):
    for store in (stores[f - 1], audit_stores[f - 1]):
        assert store.f == f
        assert _digest(store.correlator(g, h).coeffs) == PINNED_DEEP[(f, g, h)]


@pytest.mark.parametrize("f,g,h", sorted(PINNED_PAST_CAP))
def test_pinned_digests_past_the_cap(stores, audit_stores, f, g, h):
    for store in (stores[f - 1], audit_stores[f - 1]):
        assert store.f == f
        assert _digest(store.correlator(g, h).coeffs) == PINNED_PAST_CAP[(f, g, h)]


def test_modes_agree_past_the_cap(stores, audit_stores):
    """Behind W(8,1) and W(4,6) the string and dilaton fill of a default
    store gives the same tensors as the full contraction of an audit store,
    on the tensors that no digest names too."""
    for default, audit in zip(stores, audit_stores):
        for g, h in ((8, 1), (4, 6)):
            default.correlator(g, h)
            audit.correlator(g, h)
        held = set(default.table) & set(audit.table)
        assert len(held) >= 48
        for key in sorted(held):
            assert default.table[key] == audit.table[key], (default.f, key)


@pytest.mark.parametrize("f,g,h", sorted(set(PINNED) | set(PINNED_DEEP)))
def test_pinned_tensors_are_canonical(stores, audit_stores, tmp_path, f, g, h):
    """A stored tensor is nonzero numerators over their least common
    denominator: one form, so both modes store the same tuple and the cache
    gives it back unchanged."""
    default, audit = stores[f - 1], audit_stores[f - 1]
    w = default.correlator(g, h)
    assert w == audit.correlator(g, h)
    assert w.den > 0 and 0 not in w.nums.values()
    assert gcd(w.den, *w.nums.values()) == 1
    cache = CorrCache(tmp_path)
    cache.store(w, default.conventions)
    assert cache.load(f, g, h, default.conventions) == w


def test_both_modes_store_the_same_tensors():
    """An empty core builds no frame but still requests every lower tensor
    the contraction reads, so a store (and a cache directory) holds the
    same tensors in both modes after every pinned target, each run on
    fresh stores."""
    for f, g, h in sorted(set(PINNED) | set(PINNED_DEEP)):
        default, audit = CorrStore(f, CONV), CorrStore(f, CONV, audit=True)
        default.correlator(g, h)
        audit.correlator(g, h)
        assert set(default.table) == set(audit.table), (f, g, h)


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
    coefficient the full contraction reads is no longer certified.  The
    core alone may read fewer, so the probe is an audit store."""
    for store in stores:
        store.correlator(g, h)
        probe = CorrStore(store.f, store.conventions, audit=True)
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


def _fractions(table):
    den, nums = table
    return {k: Fraction(c, den) for k, c in nums.items()}


@pytest.mark.parametrize("window", [9, 21])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_integer_tables_match_fraction_tables(stores, f, window):
    """Every entry of R[a,b], E[b], D and W03 equals its construction in
    Fraction arithmetic, for every leg index a frame of this window serves
    (lower index sums up to (window-5)/2, from the dimension bound).  The
    involution symmetry the contraction relies on holds in the oracle:
    R[a,b] = R[b,a], and E[b] equals its mirror orientation."""
    store = stores[f - 1]
    frame = recursion._Frame(store.curve, store.psi, window,
                             store.conventions.sigma_kernel)
    oracle = FractionTables(frame)
    top = (window - 5) // 2
    for a in range(top + 1):
        for b in range(top + 1 - a):
            r = oracle.r(a, b)
            assert r == oracle.r(b, a), (a, b)
            assert _fractions(frame.r_table(a, b)) == r, (a, b)
    for b in range(top + 1):
        half = oracle.e(b)
        assert half == oracle.e_mirror(b), b
        assert _fractions(frame.e_table(b)) == half, b
    assert _fractions(frame.d_table()) == oracle.d()
    assert _fractions(frame.w03_table()) == oracle.w03()


def test_r_table_is_built_once_per_unordered_pair(stores):
    """R[a,b] = R[b,a], so both orders of a pair share one table."""
    store = stores[1]
    frame = recursion._Frame(store.curve, store.psi, 13, store.conventions.sigma_kernel)
    for a in range(5):
        for b in range(a, 5 - a):
            assert frame.r_table(b, a) is frame.r_table(a, b), (a, b)
    assert all(a <= b for a, b in frame._r)


@pytest.mark.parametrize("lo", [0, 2])
def test_by_tail_holds_each_leg_once(lo):
    """Putting each leg back into its tail gives a key of the tensor with
    its value; every key appears once per distinct index whose removal
    leaves a tail with no index below lo, and no other tail is kept."""
    nums = {(0, 2, 2): 5, (2, 2, 3): 7, (1, 3): -2, (2, 3, 3): 1, (4,): 11}
    got = Counter()
    for rest, legs in recursion._by_tail(nums, lo).items():
        assert all(n >= lo for n in rest), rest
        for v, c in legs:
            key = tuple(sorted(rest + (v,)))
            assert nums[key] == c, (rest, v)
            got[key, v] += 1
    want = Counter()
    for key in nums:
        for v in set(key):
            rest = list(key)
            rest.remove(v)
            if all(n >= lo for n in rest):
                want[key, v] += 1
    assert got == want
    assert sum(want.values()) == (9 if lo == 0 else 7)


def _split_once(term):
    """A quadratic term that counts its split once, so an off-diagonal split
    loses its mirror."""
    def once(self, *args):
        return term(self, *args[:-1], 1)
    return once


def _unit_weight_merge(t1, t2):
    return tuple(sorted(t1 + t2)), 1


def _last_leg_dropped(by_tail):
    """A grouping that loses the last leg of every tail."""
    def dropped(nums, lo):
        return {rest: legs[:-1] for rest, legs in by_tail(nums, lo).items()}
    return dropped


#: name -> the (owner, attribute, replacement) patches of one mutation
MUTATIONS = {
    "merge-weight-1": [(recursion, "_merge", _unit_weight_merge)],
    "last-leg-dropped": [(recursion, "_by_tail", _last_leg_dropped(recursion._by_tail))],
    "split-once": [(CorrStore, name, _split_once(getattr(CorrStore, name)))
                   for name in ("_pair_term", "_bergman_leg_term")],
}


@pytest.mark.parametrize("mutation,g,h", [
    ("merge-weight-1", 0, 4), ("merge-weight-1", 1, 2),
    ("split-once", 1, 2), ("split-once", 0, 5),
    ("last-leg-dropped", 1, 2), ("last-leg-dropped", 2, 2)])
def test_free_slot_check_catches_broken_contraction(monkeypatch, mutation, g, h):
    """The fixed slots are symmetric by construction, so a wrong split
    weight or a lost mirror split shows only as a free index whose value
    differs from another free index of the same key."""
    CorrStore(1, CONV, audit=True).correlator(g, h)  # the unbroken contraction passes
    for patch in MUTATIONS[mutation]:
        monkeypatch.setattr(*patch)
    with pytest.raises(AssertionError, match="free slot breaks the symmetry"):
        CorrStore(1, CONV, audit=True).correlator(g, h)


def _fill_mutant(old, new):
    """``recursion._fill`` with one piece of its source replaced."""
    source = inspect.getsource(recursion._fill)
    assert source.count(old) == 1, old
    namespace = dict(vars(recursion))
    exec(source.replace(old, new), namespace)
    return namespace["_fill"]


#: name -> (source piece of ``_fill``, its broken replacement)
FILL_MUTATIONS = {
    "string-shift-2": ("(v + 1,)", "(v + 2,)"),
    "string-count-dropped": ("weight * c", "c"),
    "dilaton-2g-2+h": ("2 * g - 3 + h", "2 * g - 2 + h"),
}


@pytest.mark.parametrize("mutation", sorted(FILL_MUTATIONS))
def test_broken_fill_differs_from_its_audit_twin(monkeypatch, audit_stores, mutation):
    """A default store trusts the fill without a free-slot check, so a
    broken string or dilaton step must show against the pinned digests
    and against the full contraction of an audit store.  Targets run from
    the lowest up and stop at the first that differs: above it, the core
    may read the broken tensor and fail its own checks."""
    monkeypatch.setattr(recursion, "_fill", _fill_mutant(*FILL_MUTATIONS[mutation]))
    for f, g, h in sorted(PINNED, key=lambda t: (2 * t[1] - 2 + t[2], t)):
        got = CorrStore(f, CONV).correlator(g, h).coeffs
        if (got != audit_stores[f - 1].correlator(g, h).coeffs
                and _digest(got) != PINNED[(f, g, h)]):
            return
    pytest.fail(f"{mutation} left every pinned target intact")


def test_empty_core_builds_no_frame():
    """W(0,6) and every tensor below it but W(0,3) have an empty core, so a
    default store builds only the frame of W(0,3); an audit store builds
    the one frame that W(0,6) asks for."""
    default = CorrStore(1, CONV)
    default.correlator(0, 6)
    assert set(default._frames) == {window_policy(0, 3)} == {4}
    audit = CorrStore(1, CONV, audit=True)
    audit.correlator(0, 6)
    assert set(audit._frames) == {window_policy(0, 6)} == {7}
