"""Oracle and property tests for the noisy-exchange integrator.

Frozen reference values were computed with mpmath at 50 decimal digits from
the closed forms of the decay amplitude G(t), the decoherence function
Lambda(t), and their log-derivative rates; a couple are re-derived in-test
at 30 digits as a second route.
"""

import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from qrevival import dynamics as dy
from qrevival.linalg import I4, KET_PLUS, KET0, KET1, dm

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


def test_ad_rate_sign_regimes():
    ts = np.arange(0.0, 10.0 + 1e-12, 0.01)
    slow = dy.gamma_ad(ts, dy.ADParams(b=5.0, lam=1.0))
    assert np.all(slow >= 0.0)
    osc = dy.gamma_ad(ts, dy.ADParams(b=0.05, lam=10.0))
    assert np.min(osc) < 0.0


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
            assert params.rate(t) == pytest.approx(gam_ref, rel=1e-12)
    slow = dy.RTNParams(v=1.0, kappa=1.0 / 7.0)
    assert abs(slow.c) / slow.kappa == pytest.approx(RTN_SLOW_CHI, rel=1e-14)


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
    assert p.rate(1.0) == pytest.approx(2.0 * 1.0 / (1.0 + 2.0), rel=1e-12)


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
        assert np.allclose(p.rate(ts)[keep], fd[keep], rtol=1e-6, atol=1e-6)
    free = dy.NoiseFree()
    assert (free.coherence(2.0), free.rate(2.0), free.non_markovian) == (1.0, 0.0, False)
    assert np.array_equal(free.rate(ts), np.zeros_like(ts))
    assert not np.any(free.dissipator(I4 / 4.0))


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


def test_param_validation():
    with pytest.raises(ValueError):
        dy.ADParams(b=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        dy.ADParams(b=1.0, lam=0.0)
    with pytest.raises(ValueError):
        dy.RTNParams(v=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        dy.RTNParams(v=1.0, kappa=-2.0)


def test_ad_dissipator_hand_example():
    # D[rho] = A rho A^dag - {A^dag A, rho}/2 with A = I (x) sigma_minus,
    # applied to |00><00|: drains the ancilla excited population into |01>
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0                       # |00><00|
    out = chan.params.dissipator(rho)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = -1.0
    expect[1, 1] = 1.0
    assert np.allclose(out, expect, atol=1e-14)
    # coherence between ancilla levels decays at half weight
    rho2 = np.zeros((4, 4), dtype=complex)
    rho2[0, 1] = 1.0
    out2 = chan.params.dissipator(rho2)
    assert out2[0, 1] == pytest.approx(-0.5)
    assert np.count_nonzero(np.abs(out2) > 1e-14) == 1


def test_rtn_dissipator_hand_example():
    # D[rho] = Z_A rho Z_A - rho kills ancilla coherences, doubles nothing else
    chan = dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=4.0)
    plus_a = dm(np.kron(KET0, KET_PLUS))
    out = chan.params.dissipator(plus_a)
    # |+><+| off-diagonal is 1/2 and the Z flip doubles the loss: entry -> -1
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 1] = -1.0
    expect[1, 0] = -1.0
    assert np.allclose(out, expect, atol=1e-14)
    assert np.allclose(chan.params.dissipator(I4 / 4.0), 0.0, atol=1e-15)


def test_dissipator_trace_free():
    rng = np.random.default_rng(11)
    for chan in (dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0),
                 dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0)):
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho = rho / np.trace(rho)
            assert abs(np.trace(chan.params.dissipator(rho))) < 1e-12


def test_exchange_oracle_single_excitation():
    # |01>: S excited, A ground; XY exchange at g=1 gives <Z_S> = cos(4t)
    chan = dy.ChannelSpec.noise_free()
    grid = dy.TimeGrid(t_end=5.0, n_steps=5000)
    rho0 = dm(np.kron(KET0, KET1))
    traj = dy.evolve(rho0, grid, 1.0, chan)
    err = np.max(np.abs(traj.z_s - np.cos(4.0 * traj.times)))
    assert err < 1e-6
    err_a = np.max(np.abs(traj.z_a + np.cos(4.0 * traj.times)))
    assert err_a < 1e-6


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


def test_rtn_fixes_maximally_mixed():
    grid = dy.TimeGrid(t_end=5.0, n_steps=1000)
    for kappa in (4.0, 1.0 / 7.0):
        chan = dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=kappa)
        traj = dy.evolve(I4 / 4.0, grid, 1.0, chan)
        assert np.max(np.abs(traj.z_s)) < 1e-9
        assert np.max(np.abs(traj.z_a)) < 1e-9


def test_evolve_physical_on_paper_parameter_sets():
    # per-step validation inside evolve enforces trace/hermiticity/positivity
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
        raw = chan.params.rate(np.concatenate([ts, ts[:-1] + grid.dt / 2.0]))
        altered = ~np.isfinite(raw) | (raw < 0.0) | (raw > chan.rate_clamp)
        assert traj.clamp_events == np.count_nonzero(altered)
        assert (traj.clamp_events > 0) == bool(clamps_expected)


def test_rate_positive_part_and_clamp():
    chan = dy.ChannelSpec.amplitude_damping(b=0.05, lam=10.0, rate_clamp=30.0)
    assert dy.gamma_ad(1.0, chan.params) < 0.0
    assert chan.rate(1.0) == 0.0                       # negative lobe suspended
    assert chan.params.rate(1.0) == pytest.approx(AD_OSC[1.0][1], rel=1e-12)
    near_zero = AD_OSC_FIRST_ZERO - 1e-4               # rate spike ahead of the zero
    assert chan.params.rate(near_zero) > 30.0
    assert chan.rate(near_zero) == 30.0
    markov = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    ts = np.linspace(0.0, 10.0, 500)
    assert np.allclose(markov.rate(ts), markov.params.rate(ts))
    assert dy.ChannelSpec.noise_free().rate(3.0) == 0.0


def test_cross_integrator_markovian():
    # independent adaptive integrator on the smooth monotone-rate channel
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    h = dy.build_xy_hamiltonian(1.0)
    rho0 = dy.initial_state(dy.STATE_EXCITED_EXCITED)

    def rhs(t, y):
        # d rho/dt = -i[H, rho] + rate(t) D[rho], written out independently of evolve
        rho = y.reshape(4, 4)
        return (-1j * (h @ rho - rho @ h) + chan.rate(t) * chan.params.dissipator(rho)).ravel()

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


def test_evolve_deterministic():
    chan = dy.ChannelSpec.rtn_dephasing(v=1.0, kappa=1.0 / 7.0, rate_clamp=30.0)
    grid = dy.TimeGrid(t_end=3.0, n_steps=300)
    rho0 = dy.initial_state(dy.STATE_PLUS_EXCITED)
    a = dy.evolve(rho0, grid, 1.0, chan)
    b = dy.evolve(rho0, grid, 1.0, chan)
    assert np.array_equal(a.z_s, b.z_s)
    assert np.array_equal(a.z_a, b.z_a)


def test_validate_density_matrix_rejections():
    dy.validate_density_matrix(I4 / 4.0)
    with pytest.raises(ValueError, match="trace"):
        dy.validate_density_matrix(I4 / 2.0)
    bad_herm = np.array(I4 / 4.0, dtype=complex)
    bad_herm[0, 1] = 1e-3
    with pytest.raises(ValueError, match="[Hh]ermit"):
        dy.validate_density_matrix(bad_herm)
    neg = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positivity"):
        dy.validate_density_matrix(neg)


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
    st.builds(dy.ChannelSpec.amplitude_damping, _positive, _positive, _positive),
    st.builds(dy.ChannelSpec.rtn_dephasing, _positive, _positive, _positive),
    st.builds(dy.ChannelSpec, rate_clamp=_positive))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), chan=_channels, n=st.integers(2, 40),
       dt=st.floats(1e-3, 10.0), g=_positive, clamp_events=st.integers(0, 10 ** 6),
       tag=st.sampled_from([*dy.INITIAL_KETS, dy.STATE_CUSTOM]))
def test_trajectory_files_roundtrip_property(tmp_path, data, chan, n, dt, g,
                                             clamp_events, tag):
    assert dy.ChannelSpec.from_dict(chan.to_dict()) == chan
    z = data.draw(arrays(float, (2, n), elements=st.floats(-1.0, 1.0)))
    traj = dy.Trajectory(times=dt * np.arange(n), z_s=z[0], z_a=z[1], channel=chan,
                         g=g, initial_state_tag=tag, clamp_events=clamp_events)
    first = os.path.join(tmp_path, "a.csv")
    dy.write_trajectory(traj, first)
    back = dy.read_trajectory(first)
    assert (back.channel, back.g, back.initial_state_tag, back.clamp_events) == \
        (chan, g, tag, clamp_events)
    second = os.path.join(tmp_path, "b.csv")
    dy.write_trajectory(back, second)
    for suffix in ("", ".meta.json"):
        with open(first + suffix, "rb") as f1, open(second + suffix, "rb") as f2:
            assert f1.read() == f2.read()


def test_trajectory_roundtrip(tmp_path):
    chan = dy.ChannelSpec.amplitude_damping(b=5.0, lam=1.0)
    grid = dy.TimeGrid(t_end=1.0, n_steps=100)
    traj = dy.evolve(dy.initial_state(dy.STATE_EXCITED_EXCITED), grid, 1.0, chan,
                     initial_state_tag=dy.STATE_EXCITED_EXCITED)
    csv_path = os.path.join(tmp_path, "traj.csv")
    dy.write_trajectory(traj, csv_path)
    back = dy.read_trajectory(csv_path)
    assert np.allclose(back.times, traj.times, atol=1e-12)
    assert np.allclose(back.z_s, traj.z_s, atol=1e-12)
    assert back.channel == chan
    assert back.g == 1.0
    assert back.initial_state_tag == dy.STATE_EXCITED_EXCITED
    # re-export reproduces both files byte for byte
    second = os.path.join(tmp_path, "traj2.csv")
    dy.write_trajectory(back, second)
    with open(csv_path, "rb") as f1, open(second, "rb") as f2:
        assert f1.read() == f2.read()
    with open(csv_path + ".meta.json", "rb") as f1, \
            open(second + ".meta.json", "rb") as f2:
        assert f1.read() == f2.read()
