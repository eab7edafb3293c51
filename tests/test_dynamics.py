"""Oracle and property tests for the noisy-exchange integrator.

Frozen reference values were computed with mpmath at 50 decimal digits from
the closed forms of the decay amplitude G(t), the decoherence function
Lambda(t), and their log-derivative rates; a couple are re-derived in-test
at 30 digits as a second route.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from qrevival import cli
from qrevival import dynamics as dy
from qrevival.linalg import I4, KET_PLUS, KET0, KET1, dm

from conftest import CONFIGS, read_truth, truth

# G(t) and gamma(t) for the monotone-decay parameters b=5, lam=1
AD_SLOW = {
    0.5: (0.96862669611903348, 0.18596042992566196),
    1.0: (0.92201494583400515, 0.20251608523636855),
    2.0: (0.83267884761099332, 0.20415482345182806),
}
# G(t) and gamma(t) for the backflow parameters b=0.05, lam=10
AD_OSC = {
    0.25: (0.84840581626287273, 2.7782095997469419),
    0.5: (0.44200838646214252, 8.9855536453877274),
    1.0: (-0.59334468621561094, -5.7844438602853836),
}
AD_OSC_FIRST_ZERO = 0.70752579902101063
# Lambda(t) and Gamma(t) for v=1, kappa=4 (monotone) and v=1, kappa=1/7
RTN_FAST = {
    0.5: (0.82226342390180952, 0.26014671702802541),
    1.0: (0.63036002227801773, 0.26770549797665853),
}
RTN_SLOW = {
    0.25: (0.88043391201837036, 0.52554242686055661),
    0.5: (0.56106760955162489, 1.397652996915065),
}
RTN_SLOW_FIRST_ZERO = 0.82324569047297439
RTN_SLOW_CHI = 13.964240043768941


def test_ad_decay_amplitude_oracle():
    for params, table in ((dy.ADParams(b=5.0, lam=1.0), AD_SLOW),
                          (dy.ADParams(b=0.05, lam=10.0), AD_OSC)):
        for t, (g_ref, _) in table.items():
            assert params.coherence(t) == pytest.approx(g_ref, abs=1e-13)
    # vectorized evaluation agrees with scalar
    p = dy.ADParams(b=0.05, lam=10.0)
    ts = np.array(sorted(AD_OSC))
    vals = p.coherence(ts)
    assert vals == pytest.approx([AD_OSC[t][0] for t in ts], abs=1e-13)


def test_ad_decay_amplitude_second_route():
    # independent 30-digit evaluation of one frozen entry
    mp.mp.dps = 30
    b, lam = mp.mpf("0.05"), mp.mpf(10)
    d = mp.sqrt(b * b - 2 * lam)
    g = mp.e ** (-b / 2) * (mp.cosh(d / 2) + (b / d) * mp.sinh(d / 2))
    assert float(mp.re(g)) == pytest.approx(AD_OSC[1.0][0], abs=1e-13)
    assert abs(float(mp.im(g))) < 1e-25


def test_ad_critical_damping_closed_form():
    # b*b == 2*lam collapses G to exp(-b t/2)(1 + b t/2)
    p = dy.ADParams(b=2.0, lam=2.0)
    assert p.coherence(1.0) == pytest.approx(2.0 / math.e, abs=1e-14)
    assert p.coherence(1.0) == pytest.approx(0.73575888234288464, abs=1e-14)
    # rate limit lam*t / (1 + b t / 2)
    assert dy.gamma_ad(1.0, p) == pytest.approx(2.0 / 2.0, abs=1e-12)


def test_ad_rate_oracle():
    for params, table in ((dy.ADParams(b=5.0, lam=1.0), AD_SLOW),
                          (dy.ADParams(b=0.05, lam=10.0), AD_OSC)):
        for t, (_, gam_ref) in table.items():
            assert dy.gamma_ad(t, params) == pytest.approx(gam_ref, rel=1e-12)


def test_ad_first_zero_and_spacing():
    p = dy.ADParams(b=0.05, lam=10.0)
    lo, hi = 0.5, 1.0
    assert p.coherence(lo) > 0 > p.coherence(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p.coherence(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(AD_OSC_FIRST_ZERO, abs=1e-12)
    # zeros of cosh(d t/2) + (b/d) sinh(d t/2) repeat every 2 pi / |d|
    spacing = 2.0 * math.pi / math.sqrt(2.0 * p.lam - p.b * p.b)
    z2 = AD_OSC_FIRST_ZERO + spacing
    assert abs(p.coherence(z2)) < 1e-10


def test_rtn_decoherence_oracle():
    for params, table in ((dy.RTNParams(v=1.0, kappa=4.0), RTN_FAST),
                          (dy.RTNParams(v=1.0, kappa=1.0 / 7.0), RTN_SLOW)):
        for t, (lam_ref, gam_ref) in table.items():
            assert dy.rtn_lambda(t, params) == pytest.approx(lam_ref, abs=1e-13)
            assert params.signed_rate(t) == pytest.approx(gam_ref, rel=1e-12)
    slow = dy.RTNParams(v=1.0, kappa=1.0 / 7.0)
    assert abs(slow.c) / slow.kappa == pytest.approx(RTN_SLOW_CHI, rel=1e-14)


@pytest.mark.parametrize("chan", [dy.ChannelSpec.amplitude_damping(b=100.0, lam=1.0),
                                  dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=40.0),
                                  dy.ChannelSpec.amplitude_damping(b=2.0, lam=2.0 - 1e-7),
                                  dy.ChannelSpec.amplitude_damping(b=2.0, lam=2.0 + 1e-7)])
def test_closed_forms_against_mpmath_on_a_long_grid(chan):
    # c t passes the ~710 where sinh and cosh overflow a double at t near 14.2 (amplitude
    # damping b 100) and 17.8 (RTN); b 2, lambda 2 -+ 1e-7 puts a real and an imaginary
    # c of about 2.2e-4 on either side of the removable point c = 0
    mp.mp.dps = 30
    a, w2, scale = (mp.mpf(x) for x in chan.oscillator)
    c = mp.sqrt(a * a - w2)
    ts = np.arange(0.0, 24.0 + 1e-9, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, rate = chan.coherence(ts), chan.rate(ts)
    want_f = [float(mp.re(mp.exp(-a * t) * (mp.cosh(c * t) + (a / c) * mp.sinh(c * t))))
              for t in ts]
    want_rate = [float(mp.re(scale * w2 / (c / mp.tanh(c * t) + a))) if t else 0.0
                 for t in ts]
    assert f == pytest.approx(want_f, rel=0.0, abs=1e-13)
    assert rate == pytest.approx(want_rate, rel=1e-12, abs=0.0)


def test_rtn_decoherence_second_route():
    mp.mp.dps = 30
    v, kappa = mp.mpf(1), mp.mpf(1) / 7
    chi = mp.sqrt((2 * v / kappa) ** 2 - 1)
    lam = mp.e ** (-kappa / 2) * (mp.cos(chi * kappa / 2) + mp.sin(chi * kappa / 2) / chi)
    assert float(lam) == pytest.approx(RTN_SLOW[0.5][0], abs=1e-13)


def test_rtn_critical_closed_form():
    # kappa == 2v collapses Lambda to exp(-kappa t)(1 + kappa t)
    p = dy.RTNParams(v=1.0, kappa=2.0)
    assert dy.rtn_lambda(1.0, p) == pytest.approx(3.0 * math.exp(-2.0), abs=1e-14)
    assert dy.rtn_lambda(1.0, p) == pytest.approx(0.40600584970983808, abs=1e-14)
    assert p.signed_rate(1.0) == pytest.approx(2.0 * 1.0 / (1.0 + 2.0), rel=1e-12)


def test_rtn_monotone_vs_sign_change():
    ts = np.arange(0.0, 5.0 + 1e-12, 0.005)
    fast = dy.rtn_lambda(ts, dy.RTNParams(v=1.0, kappa=4.0))
    assert np.all(np.diff(fast) < 0.0)
    slow = dy.rtn_lambda(ts, dy.RTNParams(v=1.0, kappa=1.0 / 7.0))
    assert np.min(slow) < 0.0 < np.max(slow)
    # first sign change bracket
    p = dy.RTNParams(v=1.0, kappa=1.0 / 7.0)
    assert dy.rtn_lambda(RTN_SLOW_FIRST_ZERO - 1e-6, p) > 0
    assert dy.rtn_lambda(RTN_SLOW_FIRST_ZERO + 1e-6, p) < 0


def test_rate_is_scaled_log_derivative_of_coherence():
    # one closed form: rate = -scale f'/f, checked by central differences away
    # from the zeros of f, in both regimes and at the removable point
    ts = np.linspace(0.05, 3.0, 60)
    h = 1e-6
    for p in (dy.ADParams(b=5.0, lam=1.0), dy.ADParams(b=0.05, lam=10.0),
              dy.ADParams(b=2.0, lam=2.0), dy.RTNParams(v=1.0, kappa=4.0),
              dy.RTNParams(v=1.0, kappa=1.0 / 7.0), dy.RTNParams(v=1.0, kappa=2.0)):
        f = p.coherence(ts)
        fd = -p.oscillator[2] * (p.coherence(ts + h) - p.coherence(ts - h)) / (2.0 * h * f)
        keep = np.abs(f) > 0.05
        assert np.allclose(p.signed_rate(ts)[keep], fd[keep], rtol=1e-6, atol=1e-6)
    free = dy.NoiseFree()
    assert (free.coherence(2.0), free.signed_rate(2.0), free.non_markovian) == (1.0, 0.0, False)
    assert np.array_equal(free.signed_rate(ts), np.zeros_like(ts))
    assert not np.any(dy._generators(1.0, free)[1])


def test_regime_flags():
    assert not dy.ADParams(b=5.0, lam=1.0).non_markovian
    assert dy.ADParams(b=0.05, lam=10.0).non_markovian
    assert not dy.ADParams(b=2.0, lam=2.0).non_markovian      # boundary b^2 == 2 lam
    assert not dy.RTNParams(v=1.0, kappa=4.0).non_markovian
    assert dy.RTNParams(v=1.0, kappa=1.0 / 7.0).non_markovian
    assert not dy.RTNParams(v=1.0, kappa=2.0).non_markovian   # boundary v/kappa == 1/2
    assert dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0).regime() == "non-markovian"
    assert dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=4.0).regime() == "markovian"
    assert dy.ChannelSpec.noise_free().regime() == "noise-free"


def test_channel_constructors_are_the_classes():
    assert dy.ChannelSpec.amplitude_damping is dy.ADParams
    assert dy.ChannelSpec.rtn_dephasing is dy.RTNParams
    assert dy.ChannelSpec.noise_free is dy.NoiseFree
    with pytest.raises(TypeError):                 # rate_clamp is keyword-only
        dy.ChannelSpec.amplitude_damping(1.0, 2.0, 30.0)


def test_param_validation():
    with pytest.raises(ValueError):
        dy.ADParams(b=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        dy.ADParams(b=1.0, lam=0.0)
    with pytest.raises(ValueError):
        dy.RTNParams(v=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        dy.RTNParams(v=1.0, kappa=-2.0)
    # a^2 or w2 past a double: the closed forms would give NaN from t = 0 on, and the clamp
    # would run every step at the cap
    for chan, kwargs in ((dy.ADParams, dict(b=3e154, lam=1.0)),
                         (dy.RTNParams, dict(v=1.0, kappa=1.4e154)),
                         (dy.RTNParams, dict(v=7e153, kappa=4.0))):
        with pytest.raises(ValueError, match=f"^{chan.kind} params overflow a double"):
            chan(**kwargs)


@pytest.mark.parametrize("name, params", [("ad_markovian", dict(b=2e154)),
                                          ("rtn_markovian", dict(kappa=1.3e154)),
                                          ("rtn_markovian", dict(v=6e153))])
def test_rates_just_below_the_oscillator_overflow(name, params):
    cfg = cli.load_run_config(os.path.join(CONFIGS, f"{name}.json"))
    chan, times, dt = dataclasses.replace(cfg.channel, **params), cfg.grid.times(), cfg.grid.dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = chan.signed_rate(np.concatenate([times, times[:-1] + dt / 2.0]))
    assert np.all(np.isfinite(raw))
    # v 6e153 makes the RTN channel non-Markovian, where the signed rate changes sign
    assert np.all(raw >= 0.0) == (not chan.non_markovian)


def _dissipator(chan, rho):
    """The rate-free dissipator of chan applied to rho as L_D @ vec(rho)."""
    return (dy._generators(1.0, chan)[1] @ rho.ravel()).reshape(4, 4)


GENERATOR_CHANNELS = [dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0),
                      dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0),
                      dy.NoiseFree()]


@pytest.mark.parametrize("chan", GENERATOR_CHANNELS)
def test_generators_match_matrix_products(chan):
    # the Kronecker closed forms against -i[H, rho] and J rho J^dag - {J^dag J, rho}/2
    rng = np.random.default_rng(5)
    j = chan.JUMP
    jtj = j.conj().T @ j
    for g in (1.0, 0.7, 2.5):
        h = dy.build_xy_hamiltonian(g)
        l_h, l_d = dy._generators(g, chan)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho)
            v = rho.ravel()
            assert np.max(np.abs(l_h @ v - (-1j * (h @ rho - rho @ h)).ravel())) <= 1e-14
            want = j @ rho @ j.conj().T - 0.5 * (jtj @ rho + rho @ jtj)
            assert np.max(np.abs(l_d @ v - want.ravel())) <= 1e-14


@pytest.mark.parametrize("chan", GENERATOR_CHANNELS)
def test_generators_conserve_coherence_order(chan):
    # entry 4 i + j of vec(rho) is rho[i, j], of coherence order N(i) - N(j), where N counts
    # the excitations of |00>, |01>, |10>, |11>; no entry of L_H or L_D joins two orders
    n = np.array([2, 1, 1, 0])
    order = np.subtract.outer(n, n).ravel()
    across = np.not_equal.outer(order, order)
    for gen in dy._generators(1.0, chan):
        assert np.count_nonzero(gen[across]) == 0


def test_ad_dissipator_hand_example():
    # D[rho] = A rho A^dag - {A^dag A, rho}/2 with A = I (x) sigma_minus,
    # applied to |00><00|: drains the ancilla excited population into |01>
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0                       # |00><00|
    out = _dissipator(chan, rho)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = -1.0
    expect[1, 1] = 1.0
    assert np.allclose(out, expect, atol=1e-14)
    # coherence between ancilla levels decays at half weight
    rho2 = np.zeros((4, 4), dtype=complex)
    rho2[0, 1] = 1.0
    out2 = _dissipator(chan, rho2)
    assert out2[0, 1] == pytest.approx(-0.5)
    assert np.count_nonzero(np.abs(out2) > 1e-14) == 1


def test_rtn_dissipator_hand_example():
    # D[rho] = Z_A rho Z_A - rho kills ancilla coherences, doubles nothing else
    chan = dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=4.0)
    plus_a = dm(np.kron(KET0, KET_PLUS))
    out = _dissipator(chan, plus_a)
    # |+><+| off-diagonal is 1/2 and the Z flip doubles the loss: entry -> -1
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 1] = -1.0
    expect[1, 0] = -1.0
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(_dissipator(chan, I4 / 4.0), 0.0, atol=1e-15)


def test_dissipator_trace_free():
    rng = np.random.default_rng(11)
    for chan in (dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0),
                 dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0)):
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho)
            assert abs(np.trace(_dissipator(chan, rho))) < 1e-12


def test_exchange_oracle_tilted_state():
    # tilted (x) excited: the 0.81-weight |00> component is dark, the
    # 0.19-weight single-excitation component swaps: <Z_S> = 0.81 - 0.19 cos(4t)
    chan = dy.ChannelSpec.noise_free()
    grid = dy.TimeGrid(t_end=3.0, n_steps=3000)
    rho0 = dy.initial_state(dy.STATE_TILTED_EXCITED)
    traj = dy.evolve(rho0, grid, 1.0, chan,
                     initial_state_tag=dy.STATE_TILTED_EXCITED)
    err = np.max(np.abs(traj.z_s - (0.81 - 0.19 * np.cos(4.0 * traj.times))))
    assert err < 1e-6
    err_a = np.max(np.abs(traj.z_a - (0.81 + 0.19 * np.cos(4.0 * traj.times))))
    assert err_a < 1e-6


def test_dark_states_stationary():
    chan = dy.ChannelSpec.noise_free()
    grid = dy.TimeGrid(t_end=2.0, n_steps=400)
    for ket, z in ((np.kron(KET0, KET0), 1.0), (np.kron(KET1, KET1), -1.0)):
        traj = dy.evolve(dm(ket), grid, 1.0, chan)
        assert np.max(np.abs(traj.z_s - z)) < 1e-9
        assert np.max(np.abs(traj.z_a - z)) < 1e-9


def test_evolve_physical_on_paper_parameter_sets():
    # evolve validates every state (trace/hermiticity/positivity), in blocks
    grid = dy.TimeGrid(t_end=10.0, n_steps=1004)
    cases = [
        (dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0, rate_clamp=30.0),
         dy.STATE_EXCITED_EXCITED, 0),
        (dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0),
         dy.STATE_EXCITED_EXCITED, 1),
        (dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=4.0, rate_clamp=30.0),
         dy.STATE_PLUS_EXCITED, 0),
        (dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0, rate_clamp=30.0),
         dy.STATE_PLUS_EXCITED, 1),
    ]
    ts = grid.times()
    for chan, tag, clamps_expected in cases:
        traj = dy.evolve(dy.initial_state(tag), grid, 1.0, chan, initial_state_tag=tag)
        assert np.all(np.isfinite(traj.z_s)) and np.all(np.isfinite(traj.z_a))
        assert np.max(np.abs(traj.z_s)) <= 1.0 + 1e-6
        # every raw rate at a node or midpoint that the clamp must alter
        raw = chan.signed_rate(np.concatenate([ts, ts[:-1] + grid.dt / 2.0]))
        altered = ~np.isfinite(raw) | (raw < 0.0) | (raw > chan.rate_clamp)
        assert traj.clamp_events == np.count_nonzero(altered)
        assert (traj.clamp_events > 0) == bool(clamps_expected)


def test_rate_positive_part_and_clamp():
    chan = dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0)
    assert dy.gamma_ad(1.0, chan) < 0.0
    assert chan.rate(1.0) == 0.0                       # negative lobe suspended
    assert chan.signed_rate(1.0) == pytest.approx(AD_OSC[1.0][1], rel=1e-12)
    near_zero = AD_OSC_FIRST_ZERO - 1e-4               # rate spike ahead of the zero
    assert chan.signed_rate(near_zero) > 30.0
    assert chan.rate(near_zero) == 30.0
    markov = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    ts = np.linspace(0.0, 10.0, 500)
    assert np.allclose(markov.rate(ts), markov.signed_rate(ts))
    assert dy.ChannelSpec.noise_free().rate(3.0) == 0.0


def test_clamp_is_the_rate_rule_bit_for_bit():
    cap = 30.0
    chan = dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=cap)
    raw = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -2.5, 1e-300, 7.25, cap, 31.0, 1e308])
    # the rule written out: NaN and +inf to the cap, -inf to 0, then clipped to [0, cap]
    old = np.clip(np.nan_to_num(raw, nan=cap, posinf=cap, neginf=0.0), 0.0, cap)
    assert chan.clamp(raw).tobytes() == old.tobytes()
    for x, want in zip(raw.tolist(), old.tolist()):
        got = chan.clamp(x)
        assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("chan", [dy.ADParams(b=0.05, lam=10.0), dy.ADParams(b=2.0, lam=2.0),
                                  dy.RTNParams(v=1.0, kappa=1.0 / 7.0),
                                  dy.RTNParams(v=1.0, kappa=2.0), dy.NoiseFree()])
def test_rate_methods_return_a_float_for_a_scalar(chan):
    # both oscillator branches: c != 0, and the removable point c == 0 that noise-free takes
    ts = np.array([0.0, 1.3])
    for method in (chan.coherence, chan.signed_rate, chan.rate):
        for t in (0.0, 1.3, 2):
            assert isinstance(method(t), float)
        assert isinstance(out := method(ts), np.ndarray) and out.shape == ts.shape
        assert np.allclose(out, [method(t) for t in ts.tolist()], rtol=1e-13, atol=0.0)


def test_evolve_evaluates_the_signed_rate_once(monkeypatch):
    calls, signed_rate = [], dy.ChannelSpec.signed_rate
    monkeypatch.setattr(dy.ChannelSpec, "signed_rate",
                        lambda self, t: calls.append(np.shape(t)) or signed_rate(self, t))
    grid = dy.TimeGrid(t_end=10.0, n_steps=1004)
    chan = dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0)
    dy.evolve(dy.initial_state(dy.STATE_EXCITED_EXCITED), grid, 1.0, chan)
    assert calls == [(2 * grid.n_steps + 1,)]          # every node and midpoint, once


# clamp events and truth revival count of each shipped config
SHIPPED = {"ad_markovian": (0, 0), "ad_non_markovian": (2008, 84), "rtn_markovian": (0, 0),
           "rtn_non_markovian": (1996, 188)}
# the instructions each OpenBLAS kernel needs, by their /proc/cpuinfo names
KERNELS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


@pytest.fixture(scope="module")
def shipped_truth(tmp_path_factory):
    """{shipped config name: its truth}, each config run once for the module."""
    return {name: truth(cli.load_run_config(os.path.join(CONFIGS, f"{name}.json")),
                        tmp_path_factory.mktemp(name)) for name in SHIPPED}


@pytest.mark.parametrize("name, events, n_rev", [(k, *v) for k, v in SHIPPED.items()])
def test_clamp_events_on_the_shipped_configs(shipped_truth, name, events, n_rev):
    # the one place that pins each shipped config's clamp events and truth count; the stages
    # run through their files, so the 12-digit round trip of every value is in the path. The
    # truth counts hold on any numpy and BLAS: the nearest test-half differences lie 7.9e-6
    # (ad) and 9.3e-5 (rtn) from epsilon, while the stepping by powers of one matrix moves
    # values by about 3e-14
    assert shipped_truth[name][:3] == (events, n_rev, 500)


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):           # no mode="dicts" before numpy 1.26
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            return next((set(line.split(":", 1)[1].split()) for line in f
                         if line.startswith("flags")), set())
    except OSError:
        return set()


@pytest.mark.parametrize("kernel", KERNELS)
def test_truth_is_the_same_under_other_blas_kernels(shipped_truth, tmp_path, kernel):
    # OPENBLAS_CORETYPE makes OpenBLAS's DYNAMIC_ARCH take the kernel it would pick on another
    # CPU. It acts only where OpenBLAS loads, so the rerun is a subprocess, and a kernel whose
    # instructions the CPU lacks could fail there, so it is skipped. The last bits of z_s may
    # move (by about 1e-14); the clamp events and the truth counts may not
    if not _openblas_dynamic_arch():
        pytest.skip("numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH")
    if missing := KERNELS[kernel] - _cpu_flags():
        pytest.skip(f"the CPU lacks {sorted(missing)}, which the {kernel} kernel needs")
    names = ["ad_non_markovian", "rtn_non_markovian"]
    paths = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(filter(None, paths)))     # this process's qrevival
    # one process runs the three stages of each config; its arguments are (config, out) pairs
    stages = ("import sys; from qrevival import cli; a = sys.argv[1:]; sys.exit(any("
              "cli.main([*s.split(), '--config', c, '--out', o]) for c, o in zip(a[::2], a[1::2])"
              " for s in ('simulate', 'dataset', 'score --on-truth')))")
    args = [arg for name in names
            for arg in (os.path.join(CONFIGS, f"{name}.json"), str(tmp_path / name))]
    done = subprocess.run([sys.executable, "-c", stages, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for name in names:
        own, other = shipped_truth[name], read_truth(tmp_path / name)
        assert other[:3] == own[:3]
        assert np.max(np.abs(other[3] - own[3])) <= 1e-11


def test_cross_integrator_markovian():
    # independent adaptive integrator on the smooth monotone-rate channel
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    h = dy.build_xy_hamiltonian(1.0)
    j = chan.JUMP
    jtj = j.conj().T @ j
    rho0 = dy.initial_state(dy.STATE_EXCITED_EXCITED)

    def rhs(t, y):
        # d rho/dt = -i[H, rho] + rate(t) (J rho J^dag - {J^dag J, rho}/2), written out
        # as 4x4 products, independently of evolve's vectorized generators
        rho = y.reshape(4, 4)
        lindblad = j @ rho @ j.conj().T - 0.5 * (jtj @ rho + rho @ jtj)
        return (-1j * (h @ rho - rho @ h) + chan.rate(t) * lindblad).ravel()

    sol = solve_ivp(rhs, (0.0, 4.0), rho0.ravel().astype(complex),
                    t_eval=np.linspace(0.0, 4.0, 81), rtol=1e-10, atol=1e-12)
    assert sol.success
    grid = dy.TimeGrid(t_end=4.0, n_steps=4000)
    traj = dy.evolve(rho0, grid, 1.0, chan)
    z_ref = np.array([np.real(np.trace(dy.Z_S_OP @ sol.y[:, i].reshape(4, 4)))
                      for i in range(sol.y.shape[1])])
    assert np.max(np.abs(traj.z_s[::50] - z_ref)) < 1e-7


def test_rk4_step_halving_convergence():
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    rho0 = dy.initial_state(dy.STATE_EXCITED_EXCITED)
    ref = dy.evolve(rho0, dy.TimeGrid(t_end=2.0, n_steps=16000), 1.0, chan).z_s[-1]
    errs = []
    for n in (500, 1000, 2000):
        z = dy.evolve(rho0, dy.TimeGrid(t_end=2.0, n_steps=n), 1.0, chan).z_s[-1]
        errs.append(abs(z - ref))
    # fourth-order: halving dt should shrink the error by ~16; demand >= 8
    assert errs[0] / max(errs[1], 1e-16) > 8.0
    assert errs[1] / max(errs[2], 1e-16) > 8.0


def test_validate_density_matrix_rejections():
    dy.validate_density_matrix(I4 / 4.0)
    for shape in ((3, 3), (2, 4, 3)):
        with pytest.raises(ValueError) as exc:
            dy.validate_density_matrix(np.zeros(shape, dtype=complex))
        assert str(exc.value) == f"density matrix must be 4x4, got {shape}"
    with pytest.raises(ValueError, match="trace"):
        dy.validate_density_matrix(I4 / 2.0)
    # TRACE_TOL = 1e-9: a trace of 1 + 5e-10 passes, one of 1 + 2e-9 does not
    dy.validate_density_matrix(np.diag([0.5 + 5e-10, 0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError, match=r"^trace violated: \|tr - 1\| = 2\.000e-09$"):
        dy.validate_density_matrix(np.diag([0.5 + 2e-9, 0.5, 0.0, 0.0]).astype(complex))
    bad_herm = np.array(I4 / 4.0, dtype=complex)
    bad_herm[0, 1] = 1e-3
    with pytest.raises(ValueError, match="[Hh]ermit"):
        dy.validate_density_matrix(bad_herm)
    neg = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positivity"):
        dy.validate_density_matrix(neg)
    for entry, value in (((0, 1), np.nan), ((2, 2), np.inf)):
        bad = np.array(I4 / 4.0, dtype=complex)
        bad[entry] = value
        with pytest.raises(ValueError, match=r"^non-finite state \(t=1\)$"):
            dy.validate_density_matrix(bad, context="t=1")


def _eigvalsh_spy(monkeypatch):
    """Count the calls of np.linalg.eigvalsh, which the positivity gate runs only on failure."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


def test_validate_gate_at_the_floor(monkeypatch):
    calls = _eigvalsh_spy(monkeypatch)
    # lowest eigenvalue exactly EIG_FLOOR: the last pivot is 0.0, so eigvalsh runs and admits it
    at_floor = np.diag([0.5 - dy.EIG_FLOOR, 0.3, 0.2, dy.EIG_FLOOR]).astype(complex)
    dy.validate_density_matrix(at_floor)
    assert len(calls) == 1
    below = at_floor + np.diag([1e-9, 0.0, 0.0, -1e-9])
    with pytest.raises(ValueError,
                       match=r"^positivity violated: min eigenvalue = -1\.001e-06 \(t=2\)$"):
        dy.validate_density_matrix(np.stack([I4 / 4.0, at_floor, below, I4 / 2.0]),
                                   context=lambda i: f"t={i}")
    assert len(calls) == 2


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8), at=st.integers(0, 7),
       exponent=st.floats(-13.0, -7.0), below=st.booleans())
def test_pivot_gate_agrees_with_eigvalsh_near_the_floor(seed, m, at, exponent, below):
    # states of random eigenbasis and spectrum, one of them with its lowest eigenvalue
    # EIG_FLOOR -+ 10^exponent: a check of the stack fails exactly on the minus side
    rng, j = np.random.default_rng(seed), at % m
    u = np.linalg.qr(rng.standard_normal((m, 4, 4)) + 1j * rng.standard_normal((m, 4, 4)))[0]
    lam = rng.uniform(0.05, 1.0, (m, 4))
    lam[j, 3] = dy.EIG_FLOOR + (-1.0 if below else 1.0) * 10.0 ** exponent
    lam[:, :3] *= ((1.0 - lam[:, 3]) / lam[:, :3].sum(axis=1))[:, None]
    rho = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    min_eig = np.linalg.eigvalsh(rho[j])[0]
    assert (min_eig < dy.EIG_FLOOR) == below
    if not below:
        dy.validate_density_matrix(rho)
        return
    with pytest.raises(ValueError) as exc:
        dy.validate_density_matrix(rho, context=lambda i: f"t={i}")
    assert str(exc.value) == f"positivity violated: min eigenvalue = {min_eig:.3e} (t={j})"


def test_evolve_runs_no_eigvalsh_on_the_shipped_configs(monkeypatch):
    calls = _eigvalsh_spy(monkeypatch)
    for name in ("ad_markovian", "ad_non_markovian", "rtn_markovian", "rtn_non_markovian"):
        cfg = cli.load_run_config(os.path.join(CONFIGS, f"{name}.json"))
        dy.evolve(dy.initial_state(cfg.initial_state), cfg.grid, cfg.g, cfg.channel)
    assert calls == []
    with pytest.raises(ValueError, match="positivity"):       # the spy sees a failing state
        dy.validate_density_matrix(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    assert calls == [(1, 4, 4)]


def _faulty(rho, fault):
    """rho with one fault: a failing check, or two that the order decides."""
    bad = np.array(rho, dtype=complex)
    if fault == "hermiticity":
        bad[0, 1] += 1e-3
    elif fault == "trace":
        bad *= 1.5
    elif fault == "hermiticity+trace":
        bad *= 1.5
        bad[0, 1] += 1e-3
    elif fault == "positivity":
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    elif fault == "positivity+trace":
        bad = np.diag([0.6, 0.5, -0.1, 0.5]).astype(complex)
    elif fault == "nan":
        bad[1, 2] = np.nan
    elif fault == "inf":
        bad[3, 3] = np.inf
    return bad


_FAULTS = ("hermiticity", "trace", "hermiticity+trace", "positivity", "positivity+trace",
           "nan", "inf")


@settings(max_examples=60)
@given(data=st.data(), m=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
def test_validate_stack_matches_one_state_at_a_time(data, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, 4, 4)) + 1j * rng.standard_normal((m, 4, 4))
    stack = a @ a.conj().transpose(0, 2, 1)
    stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
    stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
    label = lambda i: f"t={i}"  # noqa: E731
    dy.validate_density_matrix(stack, context=label)            # a clean stack passes
    # one fault at j, and maybe a second one later in the stack
    n_faults = data.draw(st.integers(1, 2 if m > 1 else 1))
    at = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=n_faults,
                                   max_size=n_faults, unique=True)))
    for j in at:
        stack[j] = _faulty(stack[j], data.draw(st.sampled_from(_FAULTS)))
    expect = None
    for i, rho in enumerate(stack):
        try:
            dy.validate_density_matrix(rho, context=label(i))
        except ValueError as e:
            expect = str(e)
            break
    assert expect is not None and expect.endswith(f"(t={at[0]})")
    with pytest.raises(ValueError) as exc:
        dy.validate_density_matrix(stack, context=label)
    assert str(exc.value) == expect


def _rk4_step(l_h, l_d, v, dt, r1, r2, r3):
    """One classical RK4 step of v' = (l_h + r l_d) v, its four stages written out with two
    matvecs each; the rate is r1 at the node, r2 at the midpoint and r3 at the next node."""
    def f(v, rate):
        return l_h @ v + rate * (l_d @ v)

    k1 = f(v, r1)
    k2 = f(v + 0.5 * dt * k1, r2)
    k3 = f(v + 0.5 * dt * k2, r2)
    k4 = f(v + dt * k3, r3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _plain_evolve(rho0, grid, g, chan):
    """evolve written out plainly: one _rk4_step, a check and a readout per step."""
    l_h, l_d = dy._generators(g, chan)
    times, dt, n = grid.times(), grid.dt, grid.n_steps
    r_node, r_mid = chan.rate(times), chan.rate(times[:-1] + dt / 2.0)
    readout = np.stack([dy.Z_S_OP.T.ravel(), dy.Z_A_OP.T.ravel()])
    z = np.empty((2, n + 1))
    v = np.array(rho0, dtype=complex).ravel()
    z[:, 0] = (readout @ v).real
    for k in range(n):
        v = _rk4_step(l_h, l_d, v, dt, r_node[k], r_mid[k], r_node[k + 1])
        dy.validate_density_matrix(v.reshape(4, 4), context=f"t={times[k + 1]:.6g}")
        z[:, k + 1] = (readout @ v).real
    return z


MIDPOINT_JUMP_DT = 0.05


class _MidpointJump(dy.RTNParams):
    """RTN dephasing whose rate is 0.5 at the nodes of a grid of step MIDPOINT_JUMP_DT, and
    1 at its midpoints before t = 1, 2 after: two runs of steps that share the node rate."""

    def signed_rate(self, t):
        t = np.asarray(t, dtype=float)
        k = t / MIDPOINT_JUMP_DT
        return np.where(np.abs(k - np.round(k)) < 0.25, 0.5, np.where(t < 1.0, 1.0, 2.0))


@pytest.mark.parametrize("name", ["ad_markovian", "ad_non_markovian", "rtn_markovian",
                                  "rtn_non_markovian", "noise_free", "noise_free_partial",
                                  "midpoint_jump"])
def test_evolve_matches_plain_reference(name):
    if name == "midpoint_jump":
        # a power cache keyed by less than the whole rate triple reuses the first run's
        # powers for the second
        grid, g, chan, tag = (dy.TimeGrid(t_end=2.0, n_steps=40), 1.0, _MidpointJump(1.0, 1.0),
                              dy.STATE_PLUS_EXCITED)
    elif name == "noise_free":
        # two full validation blocks and no partial one
        grid, g, chan, tag = (dy.TimeGrid(t_end=3.0, n_steps=2 * dy.BLOCK), 1.0, dy.NoiseFree(),
                              dy.STATE_TILTED_EXCITED)
    elif name == "noise_free_partial":
        # one run of equal rates across a block edge, longer than the stack of powers,
        # that ends in a partial block
        grid, g, chan, tag = (dy.TimeGrid(t_end=2.0, n_steps=dy.BLOCK + 17), 1.0,
                              dy.NoiseFree(), dy.STATE_TILTED_EXCITED)
    else:
        cfg = cli.load_run_config(os.path.join(CONFIGS, f"{name}.json"))
        grid, g, chan, tag = cfg.grid, cfg.g, cfg.channel, cfg.initial_state
    rho0 = dy.initial_state(tag)
    traj = dy.evolve(rho0, grid, g, chan)
    z = _plain_evolve(rho0, grid, g, chan)
    # the same RK4 map, reassociated: equal to rounding, not bit for bit
    assert np.max(np.abs(traj.z_s - z[0])) <= 1e-13
    assert np.max(np.abs(traj.z_a - z[1])) <= 1e-13


def test_evolve_fails_where_plain_rk4_fails():
    # noise-free plus_excited on the shipped grid leaves the positivity floor inside one
    # run of equal rates; the powers of its step matrix fail at the same state, in the same words
    grid, chan = dy.TimeGrid(t_end=24.0, n_steps=1004), dy.NoiseFree()
    rho0 = dy.initial_state(dy.STATE_PLUS_EXCITED)
    with pytest.raises(ValueError) as plain:
        _plain_evolve(rho0, grid, 1.0, chan)
    with pytest.raises(ValueError) as runs:
        dy.evolve(rho0, grid, 1.0, chan)
    assert str(runs.value) == str(plain.value) \
        == "positivity violated: min eigenvalue = -1.005e-06 (t=2.24701)"


@pytest.mark.parametrize("name", ["ad_markovian", "ad_non_markovian", "rtn_markovian",
                                  "rtn_non_markovian"])
def test_evolve_memory_peak_stays_block_sized(name):
    # evolve keeps every state (256 B a step) and checks all 1,004 in one call, one (m,)
    # column per matrix entry rather than (m, 4, 4) copies: the peak is 0.72-0.84 MB here
    cfg = cli.load_run_config(os.path.join(CONFIGS, f"{name}.json"))
    rho0 = dy.initial_state(cfg.initial_state)
    dy.evolve(rho0, cfg.grid, cfg.g, cfg.channel)       # fills the cache of _terms
    tracemalloc.start()
    try:
        dy.evolve(rho0, cfg.grid, cfg.g, cfg.channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1e6


def test_term_table_is_cached_read_only_and_left_unchanged():
    chan = dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=0.005)
    grid = dy.TimeGrid(t_end=3.0, n_steps=100)
    terms = dy._terms(1.0, type(chan), grid.dt)
    assert dy._terms(1.0, type(chan), grid.dt) is terms
    assert not terms.flags.writeable
    with pytest.raises(ValueError):
        terms[0, 0] = 1.0
    before = terms.copy()
    assert np.array_equal(before, dy._terms.__wrapped__(1.0, type(chan), grid.dt))
    dy.evolve(dy.initial_state(dy.STATE_TILTED_EXCITED), grid, 1.0, chan)
    assert dy._terms(1.0, type(chan), grid.dt) is terms
    assert np.array_equal(terms, before)


@pytest.mark.parametrize("chan", [
    dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0),
    dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0, rate_clamp=30.0)])
def test_step_matrix_matches_rk4_stages(chan):
    # one step v + E v from the rate-monomial expansion against _rk4_step, stage by stage
    l_h, l_d = dy._generators(1.0, chan)
    dt = 0.01
    rng = np.random.default_rng(7)
    rates = rng.uniform(0.0, chan.rate_clamp, (3, 40))
    rates[:, :8] = np.array(np.meshgrid([0.0, chan.rate_clamp], [0.0, chan.rate_clamp],
                                        [0.0, chan.rate_clamp])).reshape(3, 8)
    terms = dy._terms(1.0, type(chan), dt)
    e = (dy._monomials(*rates) @ terms).view(complex).reshape(-1, 16, 16)
    for k, (r1, r2, r3) in enumerate(rates.T):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        want = _rk4_step(l_h, l_d, v, dt, r1, r2, r3)
        assert np.linalg.norm(v + e[k] @ v - want) <= 1e-15 * np.linalg.norm(want)


def test_initial_states():
    ee = dy.initial_state(dy.STATE_EXCITED_EXCITED)
    assert ee[0, 0] == 1.0 and np.trace(ee) == 1.0
    pe = dy.initial_state(dy.STATE_PLUS_EXCITED)
    expect = dm(np.kron(KET_PLUS, KET0))
    assert np.allclose(pe, expect, atol=1e-15)
    te = dy.initial_state(dy.STATE_TILTED_EXCITED)
    assert abs(np.trace(te) - 1.0) < 1e-15
    assert abs(np.trace(te @ te) - 1.0) < 1e-15  # pure
    # system Z expectation = 0.81 - 0.19; ancilla excited
    assert abs(np.real(np.trace(dy.Z_S_OP @ te)) - 0.62) < 1e-12
    assert abs(np.real(np.trace(dy.Z_A_OP @ te)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        dy.initial_state("bogus")


def test_time_grid():
    grid = dy.TimeGrid(t_end=10.0, n_steps=1004)
    ts = grid.times()
    assert len(ts) == 1005
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(10.0)
    assert grid.dt == pytest.approx(10.0 / 1004.0)
    with pytest.raises(ValueError):
        dy.TimeGrid(t_end=0.0, n_steps=10)
    with pytest.raises(ValueError):
        dy.TimeGrid(t_end=1.0, n_steps=0)


def test_channel_spec_serialization():
    specs = [
        dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0),
        dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0),
        dy.ChannelSpec.noise_free(),
    ]
    for spec in specs:
        back = dy.ChannelSpec.from_dict(spec.to_dict())
        assert back == spec
    with pytest.raises(ValueError):
        dy.ChannelSpec.from_dict({"kind": "pink_noise"})
    for kind, params in (("amplitude_damping", {}),
                         ("amplitude_damping", {"b": 1.0}),
                         ("amplitude_damping", {"b": 1.0, "lambda": 2.0, "v": 1.0}),
                         ("amplitude_damping", {"b": 1.0, "lambda": None}),
                         ("rtn_dephasing", {"b": 1.0, "lambda": 2.0}),
                         ("noise_free", {"v": 1.0})):
        with pytest.raises(ValueError, match="params"):
            dy.ChannelSpec.from_dict({"kind": kind, "params": params})
    for doc in ({"params": {}}, {"kind": ["noise_free"]}):
        with pytest.raises(ValueError, match="kind"):
            dy.ChannelSpec.from_dict(doc)


_positive = st.floats(min_value=1e-6, max_value=1e6)
_channels = st.one_of(
    st.builds(dy.ChannelSpec.amplitude_damping, _positive, _positive, rate_clamp=_positive),
    st.builds(dy.ChannelSpec.rtn_dephasing, _positive, _positive, rate_clamp=_positive),
    st.builds(dy.NoiseFree, rate_clamp=_positive))


@settings(max_examples=30)
@given(data=st.data(), chan=_channels, n=st.integers(1, 40),
       dt=st.floats(1e-3, 10.0), g=_positive,
       tag=st.sampled_from([*dy.INITIAL_KETS, dy.STATE_CUSTOM]))
def test_trajectory_files_roundtrip_property(tmp_path, data, chan, n, dt, g, tag):
    assert dy.ChannelSpec.from_dict(chan.to_dict()) == chan
    z = data.draw(arrays(float, (2, n), elements=st.floats(-1.0, 1.0)))
    # at most one clamp event per rate evaluation, at each node and midpoint
    clamp_events = data.draw(st.integers(0, 2 * n - 1))
    traj = dy.Trajectory(times=dt * np.arange(n), z_s=z[0], z_a=z[1], channel=chan,
                         g=g, dt=dt, initial_state=tag, clamp_events=clamp_events)
    first = os.path.join(tmp_path, "a.csv")
    dy.write_trajectory(traj, first)
    back = dy.read_trajectory(first)
    # each column value is the written one rounded to 12 significant digits
    for column, written in zip((back.times, back.z_s, back.z_a), (traj.times, *z)):
        assert np.array_equal(column, [float(f"{v:.12g}") for v in written])
    assert (back.channel, back.g, back.initial_state, back.clamp_events) == \
        (chan, g, tag, clamp_events)
    second = os.path.join(tmp_path, "b.csv")
    dy.write_trajectory(back, second)
    for suffix in ("", ".meta.json"):
        with open(first + suffix, "rb") as f1, open(second + suffix, "rb") as f2:
            assert f1.read() == f2.read()


def test_sidecar_keys_are_the_trajectory_fields(tmp_path):
    fields = [f.name for f in dataclasses.fields(dy.Trajectory)]
    assert fields[:3] == ["times", "z_s", "z_a"]
    assert list(dy.META_KEYS) == fields[3:]
    traj = dy.Trajectory(times=np.arange(3.0), z_s=np.zeros(3), z_a=np.zeros(3),
                         channel=dy.NoiseFree(), g=1.0, dt=1.0,
                         initial_state=dy.STATE_CUSTOM)
    csv_path = os.path.join(tmp_path, "traj.csv")
    dy.write_trajectory(traj, csv_path)
    with open(dy.meta_path(csv_path)) as f:
        assert sorted(json.load(f)) == sorted(dy.META_KEYS)


def test_trajectory_columns_share_length():
    with pytest.raises(ValueError, match="^times, z_s, z_a must share length$"):
        dy.Trajectory(times=np.arange(3.0), z_s=np.zeros(3), z_a=np.zeros(2),
                      channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)


@pytest.mark.parametrize("n", [0, 3])
def test_trajectory_clamp_events_at_most_the_rate_evaluations(n):
    # evolve evaluates the rate at n nodes and n - 1 midpoints, and an empty trajectory at none
    evals = max(2 * n - 1, 0)
    traj = dict(times=np.arange(float(n)), z_s=np.zeros(n), z_a=np.zeros(n),
                channel=dy.NoiseFree(), g=1.0, dt=1.0, initial_state=dy.STATE_CUSTOM)
    assert dy.Trajectory(**traj, clamp_events=evals).clamp_events == evals
    with pytest.raises(ValueError,
                       match=f"^clamp_events {evals + 1} exceeds {evals} rate evaluations$"):
        dy.Trajectory(**traj, clamp_events=evals + 1)


def test_trajectory_requires_dt():
    with pytest.raises(TypeError):
        dy.Trajectory(times=np.arange(3.0), z_s=np.zeros(3), z_a=np.zeros(3),
                      channel=dy.NoiseFree(), g=1.0, initial_state=dy.STATE_CUSTOM)
