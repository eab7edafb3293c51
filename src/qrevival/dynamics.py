"""Two-qubit system-ancilla dynamics under time-local noise.

The pair is coupled by an exchange (XY) Hamiltonian; a single decoherence
channel acts on the ancilla with a time-dependent scalar rate factored out
of a fixed collapse operator. The signed time-local rates go transiently
negative in the memory-bearing regime; the evolution applies their clamped
positive part (see ChannelSpec.clamp for why). Integration is fixed-step RK4 on
vec(rho), each step v <- P v with P from the rate monomials; equal rates reuse powers of P.

Every channel is one damped oscillator (a, w2, scale) with collapse operator L; for a real or
imaginary c = sqrt(a^2 - w2), g = 1 - exp(-2 c t) is bounded on t >= 0 and nothing overflows:
  f(t)           = exp(-a t) [cosh(c t) + (a/c) sinh(c t)] = Re[(2 - g + g a/c) e^{(c-a)t}]/2
  signed_rate(t) = -scale f'/f = scale w2 Re[g / (c (2 - g) + a g)]
  non-Markovian iff w2 > a^2; the code writes (c - a) t as -w2 t/(a + c), free of cancellation
    amplitude damping (b, lambda)  (b/2, lambda/2, 2)  L = I (x) sigma_-
    RTN dephasing (v, kappa)       (kappa, 4 v^2, 1/2)  L = I (x) Z
    noise-free                     (0, 0, 0)            L = 0

The signed rate diverges where f crosses zero; `clamp` maps it into [0, rate_clamp]
and every altered evaluation is counted in the trajectory metadata.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg as la
from .table import (check_keys, count, positive_real, read_json, read_table,
                    write_json, write_table)

# ---------- fixed operators ----------

Z_S_OP = np.kron(la.Z, la.I2)                    # system Z readout
Z_A_OP = np.kron(la.I2, la.Z)                    # ancilla Z readout
A_AD = np.kron(la.I2, la.SIGMA_MINUS)            # ancilla lowering

# largest |<Z>| a stage file may hold: 1 plus slack for integration rounding
Z_BOUND = 1.0 + 1e-6

STATE_EXCITED_EXCITED = "excited_excited"
STATE_PLUS_EXCITED = "plus_excited"
STATE_TILTED_EXCITED = "tilted_excited"
STATE_CUSTOM = "custom"

# system excited-amplitude of the tilted preparation; the exchange oscillation
# of <Z_S> then has amplitude 1 - 0.81 = 0.19, which keeps the damped pipeline's
# upward steps near the 0.015 revival threshold on the standard grid
TILT_EXCITED_AMPLITUDE = math.sqrt(0.81)

# (system ket, ancilla ket) of each initial-state tag a config may name
INITIAL_KETS = {
    STATE_EXCITED_EXCITED: (la.KET0, la.KET0),
    STATE_PLUS_EXCITED: (la.KET_PLUS, la.KET0),
    STATE_TILTED_EXCITED: (TILT_EXCITED_AMPLITUDE * la.KET0
                           + math.sqrt(1.0 - TILT_EXCITED_AMPLITUDE ** 2) * la.KET1,
                           la.KET0),
}


# ---------- channels ----------

@dataclass(frozen=True)
class ChannelSpec:
    """One noise channel acting on the ancilla, with a rate cap.

    A frozen dataclass of positive finite float parameters plus `rate_clamp`.
    A subclass sets `kind`, its tag, NAMES, its fields' names in configs and
    sidecars, its collapse operator JUMP and `oscillator = (a, w2, scale)`;
    the closed forms in the module docstring follow from them. For w2 > a^2,
    c is imaginary and cosh/sinh turn into cos/sin: f crosses zero and the
    signed rate goes negative. The rate methods give a float for a scalar t
    and an array for an array t.
    """

    rate_clamp: float = dataclasses.field(default=1e3, kw_only=True)

    def __post_init__(self):
        _, *attrs = self.__dataclass_fields__           # rate_clamp comes first
        for attr, name in zip(attrs, self.NAMES):
            value = positive_real(f"{self.kind} params.{name}", getattr(self, attr))
            object.__setattr__(self, attr, value)
        object.__setattr__(self, "rate_clamp", positive_real("rate_clamp", self.rate_clamp))
        a, w2, _ = self.oscillator          # past a double, the closed forms give NaN at once
        if not (math.isfinite(a * a) and math.isfinite(w2)):
            raise ValueError(f"{self.kind} params overflow a double: a^2 = {a * a!r}, "
                             f"w2 = {w2!r}")

    @property
    def c(self) -> complex:
        a, w2, _ = self.oscillator
        return cmath.sqrt(complex(a * a - w2))        # principal branch

    @property
    def non_markovian(self) -> bool:
        a, w2, _ = self.oscillator
        return w2 > a * a

    def regime(self) -> str:
        if isinstance(self, NoiseFree):
            return "noise-free"
        return "non-markovian" if self.non_markovian else "markovian"

    def coherence(self, t):
        """Coherence factor f(t), real for every parameter set."""
        t = np.asarray(t, dtype=float)
        (a, w2, _), c = self.oscillator, self.c
        if c == 0:                                     # removable point
            return np.exp(-a * t) * (1.0 + a * t)
        g = -np.expm1(-2.0 * c * t)
        return 0.5 * np.real(np.exp(-w2 * t / (a + c)) * ((2.0 - g) + (a / c) * g))

    def signed_rate(self, t):
        """Signed, unclamped time-local rate -scale f'/f; diverges at zeros of f."""
        t = np.asarray(t, dtype=float)
        (a, w2, scale), c = self.oscillator, self.c
        if c == 0:
            return scale * w2 * t / (1.0 + a * t)
        g = -np.expm1(-2.0 * c * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return scale * w2 * np.real(g / (c * (2.0 - g) + a * g))

    def rate(self, t):
        """clamp(signed_rate(t)); only the tests and bench/run.py's dynamics_work call it."""
        return self.clamp(self.signed_rate(t))

    def clamp(self, raw):
        """Evolution rate: signed `raw`, NaN and +inf to rate_clamp, clipped to [0, rate_clamp].

        Negative-rate (backflow) windows suspend the dissipator instead of
        inverting it, so every instantaneous generator stays completely
        positive and the aggregate map is physical by construction. Feeding
        the signed rate to the integrator is secularly unstable here: the
        negative lobes amplify components the truncated positive spikes no
        longer damp in sync, and the exchange coupling pumps the mismatch
        (measured ~10x growth per rate period for b=0.05, lam=10 at every
        clamp/dt combination tried, also with smoothly regularized rates).
        Rates that are nonnegative to begin with are returned unchanged, so
        Markovian and noise-free runs are identical under either reading.
        """
        return np.clip(np.nan_to_num(raw, nan=self.rate_clamp, posinf=self.rate_clamp,
                                     neginf=0.0), 0.0, self.rate_clamp)

    def to_dict(self) -> dict:
        _, *attrs = self.__dataclass_fields__
        return {"kind": self.kind,
                "params": {name: getattr(self, attr) for name, attr in zip(self.NAMES, attrs)},
                "rate_clamp": self.rate_clamp}

    @staticmethod
    def from_dict(d: dict) -> "ChannelSpec":
        """Inverse of to_dict; `params` must hold exactly the kind's parameter names."""
        check_keys(d, ("kind", "params", "rate_clamp"), ("kind",), "channel")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in CHANNELS:
            raise ValueError(f"unknown channel kind {kind!r}")
        names = CHANNELS[kind].NAMES
        params = d.get("params", {})
        check_keys(params, names, names, f"{kind} params")
        return CHANNELS[kind](*(params[k] for k in names),
                              **{k: v for k, v in d.items() if k == "rate_clamp"})


@dataclass(frozen=True)
class ADParams(ChannelSpec):
    """Amplitude damping: spectral width b, coupling strength lam.

    f is the damped Jaynes-Cummings amplitude G(t), the rate -2 Re[G'/G].
    """

    kind = "amplitude_damping"
    NAMES = ("b", "lambda")
    JUMP = A_AD

    b: float
    lam: float

    @property
    def oscillator(self):
        return self.b / 2.0, self.lam / 2.0, 2.0


@dataclass(frozen=True)
class RTNParams(ChannelSpec):
    """Random-telegraph dephasing: amplitude v, correlation-decay rate kappa.

    f is the telegraph factor Lambda(t), the rate -Lambda'/(2 Lambda); with
    Z_A^dag Z_A = I the dissipator is Z_A rho Z_A - rho.
    """

    kind = "rtn_dephasing"
    NAMES = ("v", "kappa")
    JUMP = Z_A_OP

    v: float
    kappa: float

    @property
    def oscillator(self):
        return self.kappa, 4.0 * self.v * self.v, 0.5


@dataclass(frozen=True)
class NoiseFree(ChannelSpec):
    """No noise: f = 1, a zero rate and a zero dissipator."""

    kind = "noise_free"
    NAMES = ()
    JUMP = np.zeros((4, 4), dtype=complex)

    oscillator = (0.0, 0.0, 0.0)


# every channel kind a config or sidecar may name, and its class
CHANNELS = {cls.kind: cls for cls in (ADParams, RTNParams, NoiseFree)}
# the classes are the constructors: ChannelSpec.amplitude_damping(b, lam, rate_clamp=...)
ChannelSpec.amplitude_damping, ChannelSpec.rtn_dephasing, ChannelSpec.noise_free = \
    ADParams, RTNParams, NoiseFree


# the signed AD rate and the RTN coherence factor by the names the acceptance
# criteria call
def gamma_ad(t, p: ADParams):
    return p.signed_rate(t)


def rtn_lambda(t, p: RTNParams):
    return p.coherence(t)


# ---------- grid, states, validation ----------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0..t_end with n_steps steps (n_steps+1 points)."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "t_end", positive_real("t_end", self.t_end))
        count("n_steps", self.n_steps, 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def build_xy_hamiltonian(g: float) -> np.ndarray:
    """Exchange coupling g (XX + YY); |00> and |11> are dark states."""
    return g * (np.kron(la.X, la.X) + np.kron(la.Y, la.Y))


def initial_state(tag: str) -> np.ndarray:
    if tag not in INITIAL_KETS:
        raise ValueError(f"unknown initial state tag {tag!r}")
    return la.dm(np.kron(*INITIAL_KETS[tag]))


# tolerances of a physical state: max |rho - rho^dag|, |tr rho - 1|, and the
# lowest eigenvalue allowed
HERM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-6
# evolve cuts runs of equal rates every BLOCK steps, which fixes where each power stack starts
BLOCK = 64
# powers P^1 .. P^POWERS of a step matrix that evolve caches per rate triple (a power of 2)
POWERS = 16


def _min_pivot(v: np.ndarray) -> np.ndarray:
    """Per row of v (row-major vec(rho)), the least of the four LDL^H pivots of
    sym - EIG_FLOOR I, sym = (rho + rho^dag)/2: Gaussian elimination on its lower triangle,
    one (m,) column per entry. The pivots are the squares of Cholesky's diagonal."""
    s = {(i, j): 0.5 * (v[:, 4 * i + j] + v[:, 4 * j + i].conj())
         for i in range(4) for j in range(i)}
    s.update({(i, i): v[:, 5 * i].real - EIG_FLOOR for i in range(4)})
    pivot = s[0, 0]
    for k in range(3):
        inv, conj = 1.0 / s[k, k], {j: s[j, k].conj() for j in range(k + 1, 4)}
        for i in range(k + 1, 4):
            l_ik = s[i, k] * inv
            s[i, i] = s[i, i] - (l_ik * conj[i]).real
            for j in range(k + 1, i):
                s[i, j] = s[i, j] - l_ik * conj[j]
        pivot = np.minimum(pivot, s[k + 1, k + 1])
    return pivot


def validate_density_matrix(rho: np.ndarray, context: str | Callable[[int], str] = "") -> None:
    """Raise if rho fails finiteness, hermiticity, unit trace or positivity, in that order.

    rho is a 4x4 state or an (m, 4, 4) stack; a stack raises for its first failing state,
    as one call per state would. `context` labels the state, or maps that index to a label.
    Each check is a pass over the (m,) columns of the row-major vec layout (column 4i + j
    holds rho[:, i, j]). Positivity is gated by the four LDL^H pivots of sym - EIG_FLOOR I,
    which are all positive iff every eigenvalue exceeds EIG_FLOOR; to rounding, so a success
    admits eigenvalues down to about EIG_FLOOR - 1e-15. Only a state with a pivot <= 0 or
    NaN runs eigvalsh.
    """
    def where(i):
        text = context(i) if callable(context) else context
        return f" ({text})" if text else ""
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}{where(0)}")
    v = rho.reshape(-1, 16)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # max |rho - rho^dag| over the pairs i >= j, whose mirrors give the same bits; a
        # non-finite entry leaves a non-finite term, a diagonal one as inf - inf = NaN
        herm = functools.reduce(np.maximum, (np.abs(v[:, 4 * i + j] - v[:, 4 * j + i].conj())
                                             for i in range(4) for j in range(i + 1)))
        # summed in np.trace's pairwise order, so that |tr - 1| keeps its bits
        tr = np.abs((v[:, 0] + v[:, 5]) + (v[:, 10] + v[:, 15]) - 1.0)
        cheap = np.flatnonzero(~np.isfinite(herm) | (herm > HERM_TOL) | (tr > TRACE_TOL))
        i = cheap[0] if len(cheap) else len(v)
        # positivity only before the first cheap failure
        low = np.flatnonzero(~(_min_pivot(v[:i]) > 0.0))
    if len(low):                        # some state is near or below the floor: find it
        near = v[low].reshape(-1, 4, 4)
        min_eig = np.linalg.eigvalsh(0.5 * (near + near.conj().transpose(0, 2, 1)))[:, 0]
        neg = np.flatnonzero(min_eig < EIG_FLOOR)
        if len(neg):
            raise ValueError(f"positivity violated: min eigenvalue = {min_eig[neg[0]]:.3e}"
                             f"{where(low[neg[0]])}")
    if len(cheap):
        if not np.isfinite(herm[i]):
            raise ValueError(f"non-finite state{where(i)}")
        if herm[i] > HERM_TOL:
            raise ValueError(f"hermiticity violated: max |rho - rho^dag| = {herm[i]:.3e}{where(i)}")
        raise ValueError(f"trace violated: |tr - 1| = {tr[i]:.3e}{where(i)}")


# ---------- trajectory ----------

@dataclass
class Trajectory:
    """The CSV columns times, z_s, z_a, then the sidecar: one key per later field.

    A new sidecar key is one more field, checked in __post_init__.
    """

    times: np.ndarray
    z_s: np.ndarray
    z_a: np.ndarray
    channel: ChannelSpec
    g: float
    dt: float                   # full precision in the sidecar, the CSV times at 12 digits
    initial_state: str
    clamp_events: int = 0

    def __post_init__(self):
        n = len(self.times)
        if len(self.z_s) != n or len(self.z_a) != n:
            raise ValueError("times, z_s, z_a must share length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        for name, arr in (("z_s", self.z_s), ("z_a", self.z_a)):
            if not np.all(np.abs(arr) <= Z_BOUND):     # also rejects NaN
                m = float(np.max(np.abs(arr)))
                raise ValueError(f"{name} leaves [-1, 1] by {m - 1.0:.3e}")
        self.dt = positive_real("dt", self.dt)
        drift = np.abs(self.times[:1] + self.dt * np.arange(n) - self.times)
        if np.any(drift > 1e-11 * np.abs(self.times).max(initial=0.0)):  # 12-digit times
            raise ValueError(f"dt {self.dt!r} disagrees with the spacing of the times")
        self.g = positive_real("g", self.g)
        if self.initial_state not in (tags := [*INITIAL_KETS, STATE_CUSTOM]):
            raise ValueError(f"initial_state {self.initial_state!r} is not one of {tags}")
        count("clamp_events", self.clamp_events, 0)
        if self.clamp_events > (evals := max(2 * n - 1, 0)):    # each node and midpoint
            raise ValueError(f"clamp_events {self.clamp_events} exceeds {evals} rate evaluations")

    def __len__(self) -> int:
        return len(self.times)


# the keys of the trajectory sidecar: the fields after the CSV columns
META_KEYS = tuple(Trajectory.__dataclass_fields__)[3:]


def _generators(g: float, chan):
    """(L_H, L_D) on row-major vec(rho), by vec(A X B) = (A (x) B^T) vec(X): L_H = -i[H, .]
    and L_D = J . J^dag - {J^dag J, .}/2, the rate-free dissipator of J = chan.JUMP."""
    h, j = build_xy_hamiltonian(g), chan.JUMP
    jtj = j.conj().T @ j
    return (-1j * (np.kron(h, la.I4) - np.kron(la.I4, h.T)),
            np.kron(j, j.conj()) - 0.5 * (np.kron(jtj, la.I4) + np.kron(la.I4, jtj.T)))


@functools.lru_cache(maxsize=8)
def _terms(g: float, cls: type, dt: float) -> np.ndarray:
    """C_abc as read-only (12, 512) reals, cached per key: with (l_h, l_d) = _generators(g, cls),
    an RK4 step of v' = (l_h + r l_d) v at rates r1, r2, r3 (node, midpoint, next node) is
    v + E v, E = sum r1^a r2^b r3^c C_abc; C_abc is row 6a + 2b + c."""
    l_h, l_d = _generators(g, cls)
    def times_a(axis, p):               # (l_h + r_axis l_d) p, p[a, b, c] by rate monomial
        q = l_h @ p
        np.moveaxis(q, axis, 0)[1:] += l_d @ np.moveaxis(p, axis, 0)[:-1]
        return q
    one = np.eye(16) * np.eye(1, 12).reshape(2, 3, 2, 1, 1)      # I at monomial 1
    a1, a2, a3 = (times_a(axis, one) for axis in range(3))
    a21, a22 = times_a(1, a1), times_a(1, a2)
    a221 = times_a(1, a21)
    e = (dt / 6.0 * (a1 + 4.0 * a2 + a3) + dt ** 2 / 6.0 * (a21 + a22 + times_a(2, a2))
         + dt ** 3 / 12.0 * (a221 + times_a(2, a22)) + dt ** 4 / 24.0 * times_a(2, a221))
    terms = e.reshape(12, 256).view(float)
    terms.flags.writeable = False       # every evolve with the key shares it
    return terms


def _monomials(r1, r2, r3) -> np.ndarray:
    """(m, 12) rate monomials r1^a r2^b r3^c of the m steps with rates r1[k], r2[k], r3[k],
    column 6a + 2b + c: row k times _terms is the step's increment E as (16, 16) complex."""
    mono = (np.stack([r1 ** 0, r1])[:, None, None]
            * np.stack([r2 ** 0, r2, r2 ** 2])[:, None] * np.stack([r3 ** 0, r3]))
    return mono.reshape(12, -1).T


def _powers(p: np.ndarray) -> np.ndarray:
    """(POWERS, 16, 16) stack of P^1 .. P^POWERS; P^(k+1) .. P^2k are P^1 .. P^k times P^k."""
    out = np.empty((POWERS, 16, 16), dtype=complex)
    out[0], k = p, 1
    while k < POWERS:
        np.matmul(out[:k], out[k - 1], out=out[k:2 * k])
        k *= 2
    return out


def evolve(rho0: np.ndarray, grid: TimeGrid, g: float, chan: ChannelSpec,
           initial_state_tag: str = STATE_CUSTOM) -> Trajectory:
    """Classical fixed-step RK4 over the grid on row-major vec(rho); validates every state.

    The generator is L_H + rate * L_D: L_H = -i[H, .], L_D the channel's rate-free dissipator
    (zero for noise_free), both Kronecker closed forms (_generators). Three passes over one
    array of all states: step, v <- P v with P = I + E (_terms), one gemm on a slice of the
    call's rate monomials (_monomials) giving the P of up to POWERS runs of equal rates and a
    longer run taking P^1 v .. P^POWERS v at once (_powers); check all states, rho0 included
    (only its shape is checked first), in one call, the first to break a tolerance raising by
    its label (`initial state`, else t: dt too large or rate_clamp too generous), as nothing
    repairs it; read out all states.

    Most steps lie in long runs of equal rates: all of a noise-free run, the saturated tail of
    a Markovian one, and most of a memory-bearing one, whose clamped rate sits at 0 or the cap.
    The scheme and its order are those of classical RK4, and the states equal stepwise RK4's to
    rounding (at most 3.2e-14 apart over 512 sweep points).
    """
    if rho0.shape not in ((4, 4), (1, 4, 4)):
        raise ValueError(f"density matrix must be 4x4, got {rho0.shape} (initial state)")
    times, dt, n = grid.times(), grid.dt, grid.n_steps

    # rates at every node and midpoint, clamped once up front; count each evaluation the
    # clamp altered (negative, over the cap, or non-finite at a coherence zero)
    raw = chan.signed_rate(np.concatenate([times, times[:-1] + dt / 2.0]))
    clamped = chan.clamp(raw)
    n_clamped = int(np.count_nonzero(clamped != raw))
    step_rates = np.stack([clamped[:n], clamped[n + 1:], clamped[1:n + 1]])  # r1, r2, r3
    # a run of equal rates starts where they change and at every BLOCK-th step
    starts = np.append(True, np.any(np.diff(step_rates), axis=0))
    starts[::BLOCK] = True          # keeps each state's bits: it sets where power stacks begin
    js = np.flatnonzero(starts).tolist()
    ends = js[1:] + [n]
    mono, eye = _monomials(*step_rates[:, js]), np.eye(16)      # row r: run r's monomials

    v = np.empty((n + 1, 16), dtype=complex)        # row k is vec(rho) at times[k]
    v[0], powers = np.ravel(rho0), {}
    # a huge g overflows the generators, and a state past the first unphysical one may
    # overflow before it is checked; either way the check names the first bad state
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms(g, type(chan), dt)
        for c in range(0, len(js), POWERS):
            p = (mono[c:c + POWERS] @ terms).view(complex).reshape(-1, 16, 16)
            p += eye
            for j, j_end, pj in zip(js[c:c + POWERS], ends[c:c + POWERS], p):
                if j_end - j == 1:
                    np.dot(pj, v[j], out=v[j + 1])
                    continue
                if (key := step_rates[:, j].tobytes()) not in powers:
                    powers[key] = _powers(pj)
                for i in range(j, j_end, POWERS):
                    out = v[i + 1:min(i + POWERS, j_end) + 1]
                    np.matmul(powers[key][:len(out)], v[i], out=out)
    validate_density_matrix(v.reshape(-1, 4, 4),
                            context=lambda i: "initial state" if i == 0 else f"t={times[i]:.6g}")

    # rows vec(Z^T), so that vec(Z^T) . vec(rho) = tr(Z rho)
    readout = np.stack([Z_S_OP.T.ravel(), Z_A_OP.T.ravel()])
    z = (readout @ v[:, :, None])[..., 0].real.T
    return Trajectory(times, z[0], z[1], channel=chan, g=g, dt=dt,
                      initial_state=initial_state_tag, clamp_events=n_clamped)


# ---------- trajectory files ----------

TRAJECTORY_HEADER = ("t", "z_s", "z_a")


def meta_path(csv_path) -> str:
    """The sidecar of a trajectory CSV: `<csv_path>.meta.json`."""
    return str(csv_path) + ".meta.json"


def write_trajectory(traj: Trajectory, csv_path) -> None:
    """CSV `t,z_s,z_a` plus its JSON sidecar of the META_KEYS."""
    write_table(csv_path, TRAJECTORY_HEADER, (traj.times, traj.z_s, traj.z_a))
    meta = {key: getattr(traj, key) for key in META_KEYS}
    write_json(meta_path(csv_path), {**meta, "channel": traj.channel.to_dict()})


def read_trajectory(csv_path) -> Trajectory:
    """Load a trajectory CSV and its sidecar, which holds exactly the META_KEYS."""
    _, columns = read_table(csv_path, TRAJECTORY_HEADER)
    columns = np.array(columns, dtype=float)
    meta = read_json(path := meta_path(csv_path))
    check_keys(meta, META_KEYS, META_KEYS, f"trajectory sidecar {path}")
    return Trajectory(*columns, **{**meta, "channel": ChannelSpec.from_dict(meta["channel"])})
