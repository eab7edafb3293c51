"""Two-qubit system-ancilla dynamics under time-local noise.

The pair is coupled by an exchange (XY) Hamiltonian; a single decoherence
channel acts on the ancilla with a time-dependent scalar rate factored out
of a fixed collapse operator. The signed time-local rates (gamma_ad,
gamma_rtn) go transiently negative in the memory-bearing regime; the
evolution applies their clamped magnitude (see ChannelSpec.rate for why).
Integration is fixed-step RK4 on vec(rho) with one 16x16 generator per channel.

Channels:
  amplitude damping  rate(t) = -2 Re[G'(t)/G(t)],  G from the spectral pair
                     (b, lambda); non-Markovian iff b^2 < 2*lambda
  RTN dephasing      rate(t) = -L'(t)/(2 L(t)),    L from telegraph noise
                     (v, kappa); non-Markovian iff v/kappa > 1/2

Both rate functions have divergences where their coherence factor crosses
zero; those are clamped to +-rate_clamp and every clamped evaluation is
counted in the trajectory metadata.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg as la
from .table import count, positive_real, read_table, write_json, write_table

# ---------- fixed operators ----------

Z_S_OP = la.kron(la.Z, la.I2)                    # system Z readout
Z_A_OP = la.kron(la.I2, la.Z)                    # ancilla Z readout
A_AD = la.kron(la.I2, la.SIGMA_MINUS)            # ancilla lowering
ATA_AD = la.dagger(A_AD) @ A_AD                  # = I (x) |0><0|

KIND_NONE = "noise_free"

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


# ---------- channel parameters ----------

class _ChannelParams:
    """A noise channel: a frozen dataclass of positive finite float parameters.

    A subclass sets KIND, its `kind` tag, and NAMES, its fields' names in
    configs and sidecars, and provides `non_markovian`, `rate(t)` (signed,
    unclamped) and `dissipator(rho)` (rate-free).
    """

    def __post_init__(self):
        for attr, name in zip(self.__dataclass_fields__, self.NAMES):
            value = positive_real(f"{self.KIND} params.{name}", getattr(self, attr))
            object.__setattr__(self, attr, value)


@dataclass(frozen=True)
class ADParams(_ChannelParams):
    """Amplitude damping: spectral width b, coupling strength lam."""

    KIND = "amplitude_damping"
    NAMES = ("b", "lambda")

    b: float
    lam: float

    @property
    def d(self) -> complex:
        # principal branch; purely imaginary in the backflow regime
        return cmath.sqrt(complex(self.b * self.b - 2.0 * self.lam))

    @property
    def non_markovian(self) -> bool:
        return self.b * self.b < 2.0 * self.lam

    def rate(self, t):
        return gamma_ad(t, self)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        return A_AD @ rho @ la.dagger(A_AD) - 0.5 * (ATA_AD @ rho + rho @ ATA_AD)


@dataclass(frozen=True)
class RTNParams(_ChannelParams):
    """Random-telegraph dephasing: amplitude v, correlation-decay rate kappa."""

    KIND = "rtn_dephasing"
    NAMES = ("v", "kappa")

    v: float
    kappa: float

    @property
    def chi(self) -> complex:
        # principal branch; purely imaginary below threshold 2v < kappa
        return cmath.sqrt(complex((2.0 * self.v / self.kappa) ** 2 - 1.0))

    @property
    def non_markovian(self) -> bool:
        return self.v / self.kappa > 0.5

    def rate(self, t):
        return gamma_rtn(t, self)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        return Z_A_OP @ rho @ Z_A_OP - rho


# every channel kind a config or sidecar may name, and its parameter class
CHANNELS = {ADParams.KIND: ADParams, RTNParams.KIND: RTNParams, KIND_NONE: None}


# ---------- coherence factors and rates ----------

def amplitude_damping_G(t, p: ADParams):
    """Decoherence amplitude G(t), real for every parameter pair.

    G(t) = exp(-b t/2) [cosh(d t/2) + (b/d) sinh(d t/2)], d = sqrt(b^2 - 2 lam);
    an imaginary d turns the pair into cos/sinc automatically. The removable
    d=0 point uses the series limit exp(-b t/2)(1 + b t/2).
    """
    t = np.asarray(t, dtype=float)
    env = np.exp(-p.b * t / 2.0)
    d = p.d
    if d == 0:
        out = env * (1.0 + p.b * t / 2.0)
    else:
        x = d * t / 2.0
        out = env * np.real(np.cosh(x) + (p.b / d) * np.sinh(x))
    return out if out.ndim else float(out)


def gamma_ad(t, p: ADParams):
    """Time-local amplitude-damping rate -2 Re[G'/G]; unclamped, may diverge."""
    t = np.asarray(t, dtype=float)
    d = p.d
    if d == 0:
        out = p.lam * t / (1.0 + p.b * t / 2.0)
    else:
        x = d * t / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.sinh(x)
            den = d * np.cosh(x) + p.b * np.sinh(x)
            out = 2.0 * p.lam * np.real(num / den)
    return out if out.ndim else float(out)


def rtn_lambda(t, p: RTNParams):
    """Dephasing coherence factor L(t), real-valued.

    L(t) = exp(-kappa t)[cos(chi kappa t) + sin(chi kappa t)/chi] with
    chi = sqrt((2v/kappa)^2 - 1); below threshold the complex chi turns the
    trig pair into cosh/sinh automatically. Removable chi=0 point uses the
    series limit exp(-kappa t)(1 + kappa t).
    """
    t = np.asarray(t, dtype=float)
    env = np.exp(-p.kappa * t)
    chi = p.chi
    if chi == 0:
        out = env * (1.0 + p.kappa * t)
    else:
        x = chi * p.kappa * t
        out = env * np.real(np.cos(x) + np.sin(x) / chi)
    return out if out.ndim else float(out)


def gamma_rtn(t, p: RTNParams):
    """Time-local dephasing rate -L'/(2L); unclamped, may diverge."""
    t = np.asarray(t, dtype=float)
    chi = p.chi
    if chi == 0:
        out = 2.0 * p.v ** 2 * t / (1.0 + p.kappa * t)
    else:
        x = chi * p.kappa * t
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.sin(x) / chi
            den = np.cos(x) + num
            out = (2.0 * p.v ** 2 / p.kappa) * np.real(num / den)
    return out if out.ndim else float(out)


# ---------- channel spec ----------

@dataclass(frozen=True)
class ChannelSpec:
    """One noise channel acting on the ancilla, or none (params None), with a rate cap."""

    params: Optional[_ChannelParams] = None
    rate_clamp: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "rate_clamp", positive_real("rate_clamp", self.rate_clamp))

    @property
    def kind(self) -> str:
        return KIND_NONE if self.params is None else self.params.KIND

    # constructors

    @staticmethod
    def amplitude_damping(b: float, lam: float, rate_clamp: float = 1e3) -> "ChannelSpec":
        return ChannelSpec(ADParams(b=b, lam=lam), rate_clamp)

    @staticmethod
    def rtn_dephasing(v: float, kappa: float, rate_clamp: float = 1e3) -> "ChannelSpec":
        return ChannelSpec(RTNParams(v=v, kappa=kappa), rate_clamp)

    @staticmethod
    def noise_free() -> "ChannelSpec":
        return ChannelSpec()

    # behavior

    def regime(self) -> str:
        if self.params is None:
            return "noise-free"
        return "non-markovian" if self.params.non_markovian else "markovian"

    def rate_raw(self, t):
        """Signed, unclamped time-local rate; diverges at zeros of the coherence factor."""
        if self.params is None:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        return self.params.rate(t)

    def rate(self, t):
        """Evolution rate: positive part of rate_raw, clamped to [0, rate_clamp].

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
        The signed rate stays available via rate_raw and the gamma_* ops.
        """
        raw = np.asarray(self.rate_raw(t), dtype=float)
        out = np.clip(np.nan_to_num(raw, nan=self.rate_clamp, posinf=self.rate_clamp,
                                    neginf=0.0), 0.0, self.rate_clamp)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        p = self.params
        params = {} if p is None else dict(zip(p.NAMES, dataclasses.astuple(p)))
        return {"kind": self.kind, "params": params, "rate_clamp": self.rate_clamp}

    @staticmethod
    def from_dict(d: dict) -> "ChannelSpec":
        """Inverse of to_dict; `params` must hold exactly the kind's parameter names."""
        if not isinstance(d, dict):
            raise ValueError(f"channel must be a JSON object, got {d!r}")
        unknown = sorted(set(d) - {"kind", "params", "rate_clamp"})
        if unknown:
            raise ValueError(f"unknown channel keys {unknown}")
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in CHANNELS:
            raise ValueError(f"unknown channel kind {kind!r}")
        cls = CHANNELS[kind]
        names = () if cls is None else cls.NAMES
        params = d.get("params", {})
        if not isinstance(params, dict) or sorted(params) != sorted(names):
            raise ValueError(f"{kind} params must be exactly {list(names)}, got {params!r}")
        return ChannelSpec(None if cls is None else cls(*(params[k] for k in names)),
                           **{k: v for k, v in d.items() if k == "rate_clamp"})


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
    return g * (la.kron(la.X, la.X) + la.kron(la.Y, la.Y))


def initial_state(tag: str) -> np.ndarray:
    if tag not in INITIAL_KETS:
        raise ValueError(f"unknown initial state tag {tag!r}")
    return la.dm(np.kron(*INITIAL_KETS[tag]))


# tolerances of a physical state: max |rho - rho^dag|, |tr rho - 1|, and the
# lowest eigenvalue allowed
HERM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_FLOOR = -1e-6


def validate_density_matrix(rho: np.ndarray, context: str = "") -> None:
    """Raise if rho fails the hermiticity / unit trace / positivity tolerances."""
    where = f" ({context})" if context else ""
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}{where}")
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_err > HERM_TOL:
        raise ValueError(f"hermiticity violated: max |rho - rho^dag| = {herm_err:.3e}{where}")
    tr_err = abs(complex(np.trace(rho)) - 1.0)
    if tr_err > TRACE_TOL:
        raise ValueError(f"trace violated: |tr - 1| = {tr_err:.3e}{where}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < EIG_FLOOR:
        raise ValueError(f"positivity violated: min eigenvalue = {min_eig:.3e}{where}")


# ---------- trajectory ----------

@dataclass
class Trajectory:
    times: np.ndarray
    z_s: np.ndarray
    z_a: np.ndarray
    channel: Optional[ChannelSpec]
    g: float
    initial_state_tag: str
    clamp_events: int = 0
    # the sidecar keeps dt at full precision, the CSV times at 12 digits
    dt: Optional[float] = None                       # None: times[1] - times[0]

    def __post_init__(self):
        n = len(self.times)
        if len(self.z_s) != n or len(self.z_a) != n:
            raise ValueError("times, z_s, z_a must share length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        for name, arr in (("z_s", self.z_s), ("z_a", self.z_a)):
            if not np.all(np.abs(arr) <= 1.0 + 1e-6):     # also rejects NaN
                m = float(np.max(np.abs(arr)))
                raise ValueError(f"{name} leaves [-1, 1] by {m - 1.0:.3e}")
        if self.dt is None:
            self.dt = float(self.times[1] - self.times[0]) if n > 1 else 0.0
        for name in ("g", "dt"):
            if not isinstance(getattr(self, name), (int, float)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.initial_state_tag, str):
            raise ValueError(f"initial_state must be a string, got {self.initial_state_tag!r}")
        count("clamp_events", self.clamp_events, 0)

    def __len__(self) -> int:
        return len(self.times)

    def meta_dict(self) -> dict:
        chan = self.channel.to_dict() if self.channel is not None else None
        return {
            "channel": chan,
            "g": self.g,
            "dt": self.dt,
            "clamp_events": self.clamp_events,
            "initial_state": self.initial_state_tag,
        }


def _superoperator(f) -> np.ndarray:
    """16x16 matrix of the linear map f on row-major vec(rho): column j is vec(f(E_j))."""
    return np.stack([f(e).ravel() for e in np.eye(16, dtype=complex).reshape(16, 4, 4)],
                    axis=1)


def evolve(rho0: np.ndarray, grid: TimeGrid, g: float, chan: ChannelSpec,
           initial_state_tag: str = STATE_CUSTOM) -> Trajectory:
    """Fixed-step RK4 over the grid on row-major vec(rho); validates every state.

    Each stage applies L_H v + rate * (L_D v), with L_H = -i[H, .] and L_D the
    channel's rate-free dissipator (zero for noise_free) built once as 16x16
    matrices. Nothing repairs the state: raises if hermiticity/trace/positivity
    tolerances are broken (dt too large or rate_clamp too generous).
    """
    validate_density_matrix(rho0, context="initial state")
    h = build_xy_hamiltonian(g)
    l_h = _superoperator(lambda r: -1j * (h @ r - r @ h))
    l_d = _superoperator(np.zeros_like if chan.params is None else chan.params.dissipator)
    times = grid.times()
    dt = grid.dt
    n = grid.n_steps

    # rates at nodes and midpoints, clamped once up front; count every node
    # where the raw signed rate had to be altered (negative, over cap, or
    # non-finite at a coherence zero)
    eval_times = np.concatenate([times, times[:-1] + dt / 2.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.asarray(chan.rate_raw(eval_times), dtype=float)
        clamped = chan.rate(eval_times)
    n_clamped = int(np.count_nonzero(clamped != raw))
    r_node, r_mid = clamped[: n + 1], clamped[n + 1:]

    def f(v, rate):
        return l_h @ v + rate * (l_d @ v)

    # rows vec(Z^T), so that vec(Z^T) . vec(rho) = tr(Z rho)
    readout = np.stack([Z_S_OP.T.ravel(), Z_A_OP.T.ravel()])
    z = np.empty((2, n + 1))
    v = np.array(rho0, dtype=complex).ravel()
    z[:, 0] = (readout @ v).real
    for k in range(n):
        k1 = f(v, r_node[k])
        k2 = f(v + 0.5 * dt * k1, r_mid[k])
        k3 = f(v + 0.5 * dt * k2, r_mid[k])
        k4 = f(v + dt * k3, r_node[k + 1])
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        validate_density_matrix(v.reshape(4, 4), context=f"t={times[k + 1]:.6g}")
        z[:, k + 1] = (readout @ v).real

    return Trajectory(times=times, z_s=z[0], z_a=z[1], channel=chan, g=g,
                      initial_state_tag=initial_state_tag, clamp_events=n_clamped)


# ---------- trajectory files ----------

TRAJECTORY_HEADER = ("t", "z_s", "z_a")


def write_trajectory(traj: Trajectory, csv_path) -> None:
    """CSV `t,z_s,z_a` plus a JSON meta sidecar `<csv_path>.meta.json`."""
    write_table(csv_path, TRAJECTORY_HEADER, zip(traj.times, traj.z_s, traj.z_a))
    write_json(str(csv_path) + ".meta.json", traj.meta_dict())


def read_trajectory(csv_path) -> Trajectory:
    """Load a trajectory CSV; picks up `<csv_path>.meta.json` when present.

    The sidecar may omit keys but holds none that write_trajectory does not write.
    """
    _, rows = read_table(csv_path, TRAJECTORY_HEADER)
    times, z_s, z_a = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 3).T
    meta_path = str(csv_path) + ".meta.json"
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
    if not isinstance(meta, dict):
        raise ValueError(f"trajectory sidecar {meta_path} is not a JSON object")
    chan = meta.get("channel")
    traj = Trajectory(times=times, z_s=z_s, z_a=z_a,
                      channel=None if chan is None else ChannelSpec.from_dict(chan),
                      g=meta.get("g", math.nan),
                      initial_state_tag=meta.get("initial_state", STATE_CUSTOM),
                      clamp_events=meta.get("clamp_events", 0), dt=meta.get("dt"))
    unknown = sorted(set(meta) - set(traj.meta_dict()))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in trajectory sidecar {meta_path}")
    return traj
