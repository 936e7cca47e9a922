"""Parameter plumbing: presets, derived quantities, scenario builders."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmwshare as mw
from mmwshare import ConfigError
from mmwshare.core import sinr_rate

KM2 = 1e6
P = mw.PRESETS["paper-sec5"]


def test_reference_preset_noise_floor():
    # Oracle: dB-domain arithmetic done by hand, independent of the
    # watt-domain product the property computes:
    #   -174 dBm/Hz + 10*log10(2e8) Hz + 10 dB NF - 26 dBm tx
    #   = -174 + 83.0103 + 10 - 26 = -106.9897 dB -> 2.0e-11
    assert P.sigma2 == pytest.approx(2.0e-11, rel=1e-12)


def test_reference_preset_values():
    assert P.carrier_freq_hz == 28e9
    assert P.bandwidth_hz == 200e6
    assert P.alpha_los == 2.0
    assert P.alpha_nlos == 4.0
    assert P.beta_per_m == pytest.approx(0.007)
    # -60 dB and -70 dB intercepts in linear scale
    assert P.c_los == pytest.approx(1e-6, rel=1e-12)
    assert P.c_nlos == pytest.approx(1e-7, rel=1e-12)
    # 18 dB main lobe, -2 dB side lobe
    assert P.gain_main == pytest.approx(63.0957344480193, rel=1e-12)
    assert P.gain_side == pytest.approx(0.630957344480193, rel=1e-12)
    # 10 degree half beamwidth out of 180: 1/18
    assert P.main_lobe_prob == pytest.approx(1.0 / 18.0, rel=1e-12)
    assert P.user_density_per_m2 == pytest.approx(200.0 / KM2)
    assert P.fading.kind == "rayleigh"


def test_sigma2_tracks_bandwidth():
    halved = dataclasses.replace(P, bandwidth_hz=P.bandwidth_hz / 2.0)
    assert halved.sigma2 == pytest.approx(P.sigma2 / 2.0, rel=1e-12)


def test_db_helpers():
    assert mw.core.db_to_linear(30.0) == pytest.approx(1000.0)
    assert mw.core.linear_to_db(100.0) == pytest.approx(20.0)
    assert mw.core.dbm_to_watts(30.0) == pytest.approx(1.0)
    assert mw.core.dbm_to_watts(0.0) == pytest.approx(1e-3)


def test_load_factor_value():
    # 1 + 1.28 * (200 users/km2) / (30 BS/km2) = 1 + 8.5333...
    assert mw.load_factor(P, 30.0 / KM2) == pytest.approx(9.533333333333333)
    with pytest.raises(ConfigError):
        mw.load_factor(P, 0.0)


def test_rate_threshold_value():
    # Oracle: 2^(R * N_U / B) - 1 evaluated by hand for R = 100 Mbps,
    # N_U = 9.5333..., B = 200 MHz: 2^4.766667 - 1 = 26.22135
    thr = mw.rate_sinr_threshold(100e6, P, 30.0 / KM2)
    assert thr == pytest.approx(26.221349150427383, rel=1e-12)
    assert mw.rate_sinr_threshold(0.0, P, 30.0 / KM2) == 0.0
    with pytest.raises(ConfigError):
        mw.rate_sinr_threshold(-1.0, P, 30.0 / KM2)
    # elementwise: an array gives its scalar calls' values exactly, in its shape,
    # and a scalar call is the formula evaluated in Python floats
    rates = np.linspace(0.0, 8e8, 161).reshape(7, 23)
    got = mw.rate_sinr_threshold(rates, P, 30.0 / KM2)
    assert got.shape == rates.shape
    assert got.tolist() == [[mw.rate_sinr_threshold(float(r), P, 30.0 / KM2) for r in row]
                            for row in rates]
    n_u = mw.load_factor(P, 30.0 / KM2)
    assert got.ravel().tolist() == [2.0 ** (float(r) * n_u / P.bandwidth_hz) - 1.0
                                    for r in rates.ravel()]
    with pytest.raises(ConfigError):
        mw.rate_sinr_threshold(np.array([1e8, -1.0]), P, 30.0 / KM2)
    # sinr_rate inverts it, as the formula in Python floats
    assert sinr_rate(thr, P, 30.0 / KM2) == pytest.approx(100e6, rel=1e-12)
    assert sinr_rate(7.0, P, 30.0 / KM2) == P.bandwidth_hz * math.log2(8.0) / n_u


def test_operator_set_basics():
    s = mw.OperatorSet.of(1, 3)
    assert s.bits == 0b101
    assert 1 in s and 3 in s and 2 not in s
    assert s.operators == (1, 3)
    assert len(s) == 2
    assert mw.OperatorSet.of(2).to_text() == "2"
    assert mw.OperatorSet.of(1, 2).to_text() == "1;2"
    assert mw.OperatorSet.parse("1; 3") == mw.OperatorSet.of(1, 3)


def test_operator_set_rejects_out_of_range():
    with pytest.raises(ConfigError):
        mw.OperatorSet.of(0)
    with pytest.raises(ConfigError):
        mw.OperatorSet.of(17)


def test_window_basics():
    w = mw.Window(0.0, 2000.0, -500.0, 500.0)
    assert w.area() == pytest.approx(2e6)
    assert w.center() == (1000.0, 0.0)
    sq = mw.Window.square(750.0)
    assert sq.area() == pytest.approx(1500.0**2)
    assert sq.center() == (0.0, 0.0)
    with pytest.raises(ConfigError):
        mw.Window(0.0, 0.0, 0.0, 1.0)


def test_block_model_operator_density():
    w = mw.Window.square(1000.0)
    model = mw.BlockModel(w, {
        mw.OperatorSet.of(1): 3.0 / KM2,
        mw.OperatorSet.of(2): 5.0 / KM2,
        mw.OperatorSet.of(1, 2): 7.0 / KM2,
    })
    assert model.operator_density(1) == pytest.approx(10.0 / KM2)
    assert model.operator_density(2) == pytest.approx(12.0 / KM2)
    assert model.operator_density(3) == 0.0


def test_block_model_rejects_negative_density():
    w = mw.Window.square(1000.0)
    with pytest.raises(ConfigError):
        mw.BlockModel(w, {mw.OperatorSet.of(1): -1.0 / KM2})


def test_two_op_spec_derived_densities():
    spec = mw.TwoOpSpec(50.0 / KM2, 0.7, 0.2)
    assert spec.rho == pytest.approx(0.5)
    assert spec.lambda_op1 == pytest.approx(35.0 / KM2)
    assert spec.lambda_op2 == pytest.approx(40.0 / KM2)
    assert spec.lambda_shared == pytest.approx(25.0 / KM2)
    assert spec.lambda_only1 == pytest.approx(10.0 / KM2)
    assert spec.lambda_only2 == pytest.approx(15.0 / KM2)


def test_two_op_spec_rejects_bad_retention():
    with pytest.raises(ConfigError):
        mw.TwoOpSpec(1.0 / KM2, 0.2, 0.7)  # b > a
    with pytest.raises(ConfigError):
        mw.TwoOpSpec(1.0 / KM2, 1.2, 0.0)


@given(
    lam1=st.floats(1e-7, 1e-4),
    lam2=st.floats(1e-7, 1e-4),
    frac=st.floats(0.0, 0.999),
)
def test_from_densities_round_trip(lam1, lam2, frac):
    # rho can be at most min/max of the density pair; stay inside
    rho = frac * min(lam1, lam2) / max(lam1, lam2)
    spec = mw.TwoOpSpec.from_densities(lam1, lam2, rho)
    assert spec.lambda_op1 == pytest.approx(lam1, rel=1e-9)
    assert spec.lambda_op2 == pytest.approx(lam2, rel=1e-9)
    assert spec.rho == pytest.approx(rho, rel=1e-9, abs=1e-15)


@given(rho=st.floats(0.0, 1.0), lam0=st.floats(1e-7, 1e-4))
def test_fid_keeps_per_operator_density(rho, lam0):
    spec = mw.fid_scenario(lam0, rho)
    assert spec.lambda_op1 == pytest.approx(lam0, rel=1e-12)
    assert spec.lambda_op2 == pytest.approx(lam0, rel=1e-12)
    assert spec.rho == pytest.approx(rho, abs=1e-12)


@given(rho=st.floats(0.0, 1.0), lam0=st.floats(1e-7, 1e-4))
def test_fcd_keeps_total_density(rho, lam0):
    spec = mw.fcd_scenario(lam0, rho)
    assert spec.lambda_total == pytest.approx(2.0 * lam0, rel=1e-12)
    assert spec.lambda_op1 == pytest.approx((1.0 + rho) * lam0, rel=1e-12)


def test_block_decomposition_drops_empty_blocks():
    full = dict(mw.fid_scenario(30.0 / KM2, 1.0).blocks())
    assert set(full) == {mw.OperatorSet.of(1, 2)}
    disjoint = dict(mw.fid_scenario(30.0 / KM2, 0.0).blocks())
    assert set(disjoint) == {mw.OperatorSet.of(1), mw.OperatorSet.of(2)}


@pytest.mark.parametrize("make", [mw.fid_scenario, mw.fcd_scenario], ids=["fid", "fcd"])
@pytest.mark.parametrize("rho, subsets", [
    (0.0, ["1", "2"]), (0.4, ["1", "2", "1;2"]), (1.0, ["1;2"]),
], ids=["rho0", "rho0.4", "rho1"])
def test_two_op_blocks_are_the_block_model_blocks(make, rho, subsets):
    spec = make(30.0 / KM2, rho)
    blocks = spec.blocks()
    assert blocks == spec.to_block_model(mw.Window.square(1000.0)).blocks()
    assert [sub for sub, _ in blocks] == [mw.OperatorSet.parse(s) for s in subsets]
    assert all(lam > 0 for _, lam in blocks)
    assert sum(lam for sub, lam in blocks if 1 in sub) == pytest.approx(spec.lambda_op1)


def test_params_dict_round_trip():
    rebuilt = mw.params_from_dict(mw.params_to_dict(P))
    a, b = dataclasses.asdict(rebuilt), dataclasses.asdict(P)
    assert a.keys() == b.keys()
    for key, want in b.items():
        if isinstance(want, float):
            # dB <-> linear conversions may cost an ulp or two
            assert a[key] == pytest.approx(want, rel=1e-12), key
        else:
            assert a[key] == want, key


def test_params_from_dict_overrides_on_base():
    p100 = mw.params_from_dict({"bandwidth_mhz": 100.0}, base=P)
    assert p100.bandwidth_hz == pytest.approx(100e6)
    assert p100.sigma2 == pytest.approx(P.sigma2 / 2.0, rel=1e-12)
    assert p100.tx_power_w == P.tx_power_w


def test_load_params_file_overlays_on_base(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"tx_power_dbm": 30.0}')
    half = mw.params_from_dict({"bandwidth_mhz": 100.0}, base=P)
    got = mw.load_params_file(path, base=half)
    assert got.bandwidth_hz == half.bandwidth_hz
    assert got.tx_power_w == pytest.approx(1.0)
    assert mw.load_params_file(path).bandwidth_hz == P.bandwidth_hz
    for text in ("{not json", "[1, 2]"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="params file"):
            mw.load_params_file(path, base=P)
    with pytest.raises(ConfigError, match="cannot read"):
        mw.load_params_file(tmp_path / "missing.json", base=P)


def test_params_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError):
        mw.params_from_dict({"bandwidht_mhz": 100.0}, base=P)


def test_fading_spec_validation():
    with pytest.raises(ConfigError):
        mw.FadingSpec(kind="rice")
    spec = mw.NAKAGAMI_LOGNORMAL_DEFAULT
    assert spec.kind == "nakagami-lognormal"
    assert spec.nakagami_m_los == 2
    assert spec.nakagami_m_nlos == 3
    assert spec.shadow_sigma_db_los == pytest.approx(5.2)
    assert spec.shadow_sigma_db_nlos == pytest.approx(7.6)
