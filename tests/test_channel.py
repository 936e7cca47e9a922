"""Link-level pieces: path loss, beam gains, fading, one-user SINR."""

import dataclasses
import math

import numpy as np
import pytest

import mmwshare as mw
from mmwshare import ConfigError, DataError

KM2 = 1e6
P = mw.PRESETS["paper-sec5"]
WIN = mw.Window(-2000.0, 2000.0, -2000.0, 2000.0)


def _dep(sites, link_los):
    xy = np.array([[x, y] for x, y, _ in sites], dtype=float)
    occ = np.array([o for _, _, o in sites], dtype=np.uint16)
    return mw.Deployment(WIN, xy, occ, link_los=np.asarray(link_los, dtype=bool))


def test_beam_gain_sampling():
    assert P.main_lobe_prob == pytest.approx(1.0 / 18.0)
    # widen the beam to cover the full circle: the draw is always the main lobe
    wide = mw.params_from_dict({"half_beamwidth_deg": 180.0}, base=P)
    rng = np.random.default_rng(0)
    draws = mw.sample_gain(wide, rng, size=256)
    assert np.all(draws == wide.gain_main)


def test_rayleigh_fading_mean_is_one():
    los = np.random.default_rng(6).random(200_000) < 0.5
    draws = mw.channel._sample_fading_mask(mw.RAYLEIGH, los, np.random.default_rng(7))
    # Exp(1) whatever the link type: SE = 1/sqrt(n) ~ 0.0022; allow 4 sigma
    assert abs(draws.mean() - 1.0) < 4.0 / math.sqrt(draws.size)
    assert np.array_equal(draws, np.random.default_rng(7).standard_exponential(los.size))


def _trigamma(m: int) -> float:
    return math.pi ** 2 / 6.0 - sum(1.0 / k ** 2 for k in range(1, m))


@pytest.mark.parametrize("sigma_los, sigma_nlos", [(5.2, 7.6), (0.0, 0.0)],
                         ids=["shadowed", "pure-gamma"])
def test_nakagami_fades_follow_their_link_types_parameters(sigma_los, sigma_nlos):
    spec = mw.FadingSpec(kind="nakagami-lognormal", nakagami_m_los=2.0, nakagami_m_nlos=3.0,
                         shadow_sigma_db_los=sigma_los, shadow_sigma_db_nlos=sigma_nlos)
    n = 400_000
    los = np.random.default_rng(40).random(n) < 0.3
    h = mw.channel._sample_fading_mask(spec, los, np.random.default_rng(41))
    db = math.log(10.0) / 10.0
    for mask, m, sigma in ((los, 2, sigma_los), (~los, 3, sigma_nlos)):
        x = h[mask]
        s2 = (sigma * db) ** 2
        # Gamma(m, 1/m) has unit mean and variance 1/m; exp(s Z) has mean exp(s^2/2)
        mean = math.exp(s2 / 2.0)
        var = (1.0 + 1.0 / m) * math.exp(2.0 * s2) - mean ** 2
        assert abs(x.mean() - mean) < 5.0 * math.sqrt(var / x.size)
        # log h = log(Gamma(m)) - log(m) + s Z: variance trigamma(m) + s^2
        assert np.log(x).var() == pytest.approx(_trigamma(m) + s2, rel=0.02)
        if sigma == 0.0:
            assert x.var() == pytest.approx(1.0 / m, rel=0.02)
    # the documented draw order: every entry as NLOS, then fresh LOS draws
    clone = np.random.default_rng(41)
    want = clone.standard_gamma(3.0, n) / 3.0 * np.exp(clone.standard_normal(n) * sigma_nlos * db)
    li = np.flatnonzero(los)
    want[li] = (clone.standard_gamma(2.0, li.size) / 2.0
                * np.exp(clone.standard_normal(li.size) * sigma_los * db))
    assert np.allclose(h, want, rtol=1e-12, atol=0.0)


def test_sinr_single_site_matches_hand_computation():
    dep = _dep([(100.0, 0.0, 1)], [True])
    rng = np.random.default_rng(123)
    sinr, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, rng)
    # mirror the documented draw order with an identical generator
    clone = np.random.default_rng(123)
    h = clone.exponential(1.0, 1)[0]
    expect = (P.c_los * 100.0**-2) * h * P.gain_main / P.sigma2
    assert sinr == pytest.approx(expect, rel=1e-12)
    assert serving == 0


def test_sinr_with_one_interferer_matches_hand_computation():
    # serving LOS home site at 100 m, op-2 interferer at 200 m (also LOS)
    dep = _dep([(100.0, 0.0, 0b01), (200.0, 0.0, 0b10)], [True, True])
    rng = np.random.default_rng(42)
    sinr, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, rng)
    clone = np.random.default_rng(42)
    h_serv = clone.exponential(1.0, 1)[0]
    h_int = clone.exponential(1.0, 1)[0]
    gain = P.gain_main if clone.random(1)[0] < P.main_lobe_prob else P.gain_side
    signal = (P.c_los * 100.0**-2) * h_serv * P.gain_main
    interf = (P.c_los * 200.0**-2) * h_int * gain
    assert sinr == pytest.approx(signal / (P.sigma2 + interf), rel=1e-12)
    assert serving == 0


def test_shared_serving_site_interferes_once():
    # one shared site: the co-located competitor BS is the only interferer
    dep = _dep([(100.0, 0.0, 0b11)], [True])
    rng = np.random.default_rng(9)
    sinr, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, rng)
    clone = np.random.default_rng(9)
    h_serv = clone.exponential(1.0, 1)[0]
    h_int = clone.exponential(1.0, 1)[0]
    gain = P.gain_main if clone.random(1)[0] < P.main_lobe_prob else P.gain_side
    ell = P.c_los * 100.0**-2
    assert serving == 0
    assert sinr == pytest.approx(ell * h_serv * P.gain_main
                                 / (P.sigma2 + ell * h_int * gain), rel=1e-12)
    # the two draws above were all: one interference term, not two
    assert rng.random() == clone.random()


def test_association_prefers_stronger_path_gain():
    # NLOS at 50 m: 1e-7 * 50^-4 = 1.6e-14; LOS at 400 m: 1e-6 * 400^-2 = 6.25e-12
    dep = _dep([(50.0, 0.0, 1), (400.0, 0.0, 1)], [False, True])
    _, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, np.random.default_rng(0))
    assert serving == 1


def test_association_tie_breaks_to_lowest_index():
    dep = _dep([(0.0, 120.0, 1), (120.0, 0.0, 1)], [True, True])
    _, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, np.random.default_rng(0))
    assert serving == 0


def test_sinr_requires_labels_and_home_sites():
    unlabeled = mw.Deployment(WIN, np.array([[100.0, 0.0]]),
                              np.array([1], dtype=np.uint16))
    with pytest.raises(ConfigError):
        mw.sinr_at_user(unlabeled, (0.0, 0.0), 1, P, np.random.default_rng(0))
    dep = _dep([(100.0, 0.0, 0b10)], [True])
    with pytest.raises(DataError, match="operator 1 has no site"):
        mw.sinr_at_user(dep, (0.0, 0.0), 1, P, np.random.default_rng(0))


def test_coincident_site_distance_is_clipped():
    dep = _dep([(0.0, 0.0, 1)], [True])
    sinr, serving = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, np.random.default_rng(3))
    h = np.random.default_rng(3).exponential(1.0, 1)[0]
    assert serving == 0
    assert sinr == pytest.approx(P.c_los * 1e-3**-2 * h * P.gain_main / P.sigma2, rel=1e-12)


def _random_deployment(seed, n):
    g = np.random.default_rng(seed)
    occ = g.integers(1, 4, n).astype(np.uint16)
    occ[0] |= 1
    return _dep([(x, y, o) for (x, y), o in zip(g.uniform(-1500, 1500, (n, 2)), occ)],
                g.random(n) < 0.2)


@pytest.mark.parametrize("fading", [mw.RAYLEIGH, mw.NAKAGAMI_LOGNORMAL_DEFAULT],
                         ids=["rayleigh", "nakagami"])
def test_sinr_at_user_is_the_batch_kernel_on_one_segment(fading):
    params = dataclasses.replace(P, fading=fading)
    for seed in range(5):
        dep = _random_deployment(seed, 300)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        sinr, site = mw.sinr_at_user(dep, (0.0, 0.0), 1, params, rng_a)
        d = np.maximum(np.hypot(dep.xy[:, 0], dep.xy[:, 1]), 1e-3)
        want, serving = mw.channel.sinr_batch(d, dep.link_los, dep.occupants,
                                              np.zeros(1, dtype=np.int64), 1, params, rng_b)
        assert sinr == want[0]  # bit for bit
        assert site == serving[0]
        assert rng_a.random() == rng_b.random()  # the same draws were consumed


def test_batch_kernel_segments_follow_the_documented_draw_order():
    # the middle segment is a lone home site: no interferer at all
    deps = [_random_deployment(10, 40), _dep([(100.0, 0.0, 1)], [True]),
            _random_deployment(12, 75)]
    d = np.concatenate([np.maximum(np.hypot(x.xy[:, 0], x.xy[:, 1]), 1e-3) for x in deps])
    los = np.concatenate([x.link_los for x in deps])
    occ = np.concatenate([x.occupants for x in deps])
    starts = np.array([0, 40, 41])
    sinr, serving = mw.channel.sinr_batch(d, los, occ, starts, 1, P, np.random.default_rng(7))
    # association per segment is sinr_at_user's
    for k, dep in enumerate(deps):
        _, site = mw.sinr_at_user(dep, (0.0, 0.0), 1, P, np.random.default_rng(0))
        assert serving[k] == starts[k] + site
    # every serving fade, then every interferer fade, then every gain
    clone = np.random.default_rng(7)
    ell = np.where(los, P.c_los * d ** -P.alpha_los, P.c_nlos * d ** -P.alpha_nlos)
    h_serv = clone.exponential(1.0, 3)
    counts = np.bitwise_count(occ).astype(int)
    counts[serving] -= 1
    idx = np.repeat(np.arange(d.size), counts)
    terms = ell[idx] * clone.exponential(1.0, idx.size)
    terms *= np.where(clone.random(idx.size) < P.main_lobe_prob, P.gain_main, P.gain_side)
    seg = np.searchsorted(starts, idx, side="right") - 1
    interference = np.bincount(seg, weights=terms, minlength=3)
    assert interference[1] == 0.0 and interference[0] > 0.0 and interference[2] > 0.0
    want = ell[serving] * h_serv * P.gain_main / (P.sigma2 + interference)
    assert np.allclose(sinr, want, rtol=1e-12, atol=0.0)
    # a batch of lone home sites has no interference term anywhere
    sinr, _ = mw.channel.sinr_batch(d[[0, 40]], los[[0, 40]], np.ones(2, dtype=np.uint16),
                                    np.array([0, 1]), 1, P, np.random.default_rng(7))
    h = np.random.default_rng(7).exponential(1.0, 2)
    assert np.array_equal(sinr, ell[[0, 40]] * h * P.gain_main / P.sigma2)
