"""Two-qubit system-ancilla dynamics under time-local noise.

The pair is coupled by an exchange (XY) Hamiltonian; a single decoherence
channel acts on the ancilla with a time-dependent scalar rate factored out
of a fixed collapse operator. The signed time-local rates (gamma_ad,
gamma_rtn) go transiently negative in the memory-bearing regime; the
evolution applies their clamped magnitude (see ChannelSpec.rate for why).
Integration is fixed-step classical RK4 on the density matrix.

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
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg as la
from .table import read_table, write_table

# ---------- fixed operators ----------

Z_S_OP = la.kron(la.Z, la.I2)                    # system Z readout
Z_A_OP = la.kron(la.I2, la.Z)                    # ancilla Z readout
A_AD = la.kron(la.I2, la.SIGMA_MINUS)            # ancilla lowering
ATA_AD = la.dagger(A_AD) @ A_AD                  # = I (x) |0><0|

KIND_AD = "amplitude_damping"
KIND_RTN = "rtn_dephasing"
KIND_NONE = "noise_free"

# parameter names of each channel kind, as they appear in configs and sidecars
PARAM_NAMES = {KIND_AD: ("b", "lambda"), KIND_RTN: ("v", "kappa"), KIND_NONE: ()}

STATE_EXCITED_EXCITED = "excited_excited"
STATE_PLUS_EXCITED = "plus_excited"
STATE_TILTED_EXCITED = "tilted_excited"
STATE_CUSTOM = "custom"

# system excited-amplitude of the tilted preparation; the exchange oscillation
# of <Z_S> then has amplitude 1 - 0.81 = 0.19, which keeps the damped pipeline's
# upward steps near the 0.015 revival threshold on the standard grid
TILT_EXCITED_AMPLITUDE = math.sqrt(0.81)


# ---------- channel parameters ----------

@dataclass(frozen=True)
class ADParams:
    """Amplitude damping: spectral width b, coupling strength lam."""

    b: float
    lam: float

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")

    @property
    def d(self) -> complex:
        # principal branch; purely imaginary in the backflow regime
        return cmath.sqrt(complex(self.b * self.b - 2.0 * self.lam))

    @property
    def non_markovian(self) -> bool:
        return self.b * self.b < 2.0 * self.lam


@dataclass(frozen=True)
class RTNParams:
    """Random-telegraph dephasing: amplitude v, correlation-decay rate kappa."""

    v: float
    kappa: float

    def __post_init__(self):
        if not (self.v > 0 and math.isfinite(self.v)):
            raise ValueError(f"v must be positive and finite, got {self.v}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    @property
    def chi(self) -> complex:
        # principal branch; purely imaginary below threshold 2v < kappa
        return cmath.sqrt(complex((2.0 * self.v / self.kappa) ** 2 - 1.0))

    @property
    def non_markovian(self) -> bool:
        return self.v / self.kappa > 0.5


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


def amplitude_damping_loss(t, p: ADParams):
    """Damping probability 1 - |G|^2; bounded in [0, 1], diagnostic only."""
    g = np.asarray(amplitude_damping_G(t, p))
    out = 1.0 - np.abs(g) ** 2
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
    """One noise channel acting on the ancilla (or none), with a rate cap."""

    kind: str
    ad: Optional[ADParams] = None
    rtn: Optional[RTNParams] = None
    rate_clamp: float = 1e3

    def __post_init__(self):
        if self.kind not in (KIND_AD, KIND_RTN, KIND_NONE):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == KIND_AD and self.ad is None:
            raise ValueError("amplitude_damping channel needs ADParams")
        if self.kind == KIND_RTN and self.rtn is None:
            raise ValueError("rtn_dephasing channel needs RTNParams")
        if self.kind == KIND_NONE and (self.ad is not None or self.rtn is not None):
            raise ValueError("noise_free channel takes no params")
        if not (self.rate_clamp > 0):
            raise ValueError(f"rate_clamp must be positive, got {self.rate_clamp}")

    # constructors

    @staticmethod
    def amplitude_damping(b: float, lam: float, rate_clamp: float = 1e3) -> "ChannelSpec":
        return ChannelSpec(kind=KIND_AD, ad=ADParams(b=b, lam=lam), rate_clamp=rate_clamp)

    @staticmethod
    def rtn_dephasing(v: float, kappa: float, rate_clamp: float = 1e3) -> "ChannelSpec":
        return ChannelSpec(kind=KIND_RTN, rtn=RTNParams(v=v, kappa=kappa), rate_clamp=rate_clamp)

    @staticmethod
    def noise_free() -> "ChannelSpec":
        return ChannelSpec(kind=KIND_NONE)

    # behavior

    def regime(self) -> str:
        if self.kind == KIND_NONE:
            return "noise-free"
        nm = self.ad.non_markovian if self.kind == KIND_AD else self.rtn.non_markovian
        return "non-markovian" if nm else "markovian"

    def rate_raw(self, t):
        """Signed, unclamped time-local rate; diverges at zeros of the coherence factor."""
        if self.kind == KIND_AD:
            return gamma_ad(t, self.ad)
        if self.kind == KIND_RTN:
            return gamma_rtn(t, self.rtn)
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

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

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """Rate-free dissipator D[rho] for this channel's fixed operator."""
        if self.kind == KIND_AD:
            return A_AD @ rho @ la.dagger(A_AD) - 0.5 * (ATA_AD @ rho + rho @ ATA_AD)
        if self.kind == KIND_RTN:
            return Z_A_OP @ rho @ Z_A_OP - rho
        return np.zeros_like(rho)

    def to_dict(self) -> dict:
        if self.kind == KIND_AD:
            params = {"b": self.ad.b, "lambda": self.ad.lam}
        elif self.kind == KIND_RTN:
            params = {"v": self.rtn.v, "kappa": self.rtn.kappa}
        else:
            params = {}
        return {"kind": self.kind, "params": params, "rate_clamp": self.rate_clamp}

    @staticmethod
    def from_dict(d: dict) -> "ChannelSpec":
        """Inverse of to_dict; `params` must hold exactly the kind's parameter names."""
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in PARAM_NAMES:
            raise ValueError(f"unknown channel kind {kind!r}")
        params = d.get("params", {})
        names = PARAM_NAMES[kind]
        if not isinstance(params, dict) or sorted(params) != sorted(names):
            raise ValueError(f"{kind} params must be exactly {list(names)}, got {params!r}")
        try:
            values = [float(params[k]) for k in names]
            clamp = float(d.get("rate_clamp", 1e3))
        except TypeError as e:
            raise ValueError(f"{kind} params must be numbers: {e}") from e
        if kind == KIND_AD:
            return ChannelSpec.amplitude_damping(*values, rate_clamp=clamp)
        if kind == KIND_RTN:
            return ChannelSpec.rtn_dephasing(*values, rate_clamp=clamp)
        return ChannelSpec(kind=KIND_NONE, rate_clamp=clamp)


# ---------- grid, states, validation ----------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0..t_end with n_steps steps (n_steps+1 points)."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def build_xy_hamiltonian(g: float) -> np.ndarray:
    """Exchange coupling g (XX + YY); |00> and |11> are dark states."""
    return g * (la.kron(la.X, la.X) + la.kron(la.Y, la.Y))


def initial_state(tag: str) -> np.ndarray:
    if tag == STATE_EXCITED_EXCITED:
        return la.dm(np.kron(la.KET0, la.KET0))
    if tag == STATE_PLUS_EXCITED:
        return la.dm(np.kron(la.KET_PLUS, la.KET0))
    if tag == STATE_TILTED_EXCITED:
        c = TILT_EXCITED_AMPLITUDE
        sys_ket = c * la.KET0 + math.sqrt(1.0 - c * c) * la.KET1
        return la.dm(np.kron(sys_ket, la.KET0))
    raise ValueError(f"unknown initial state tag {tag!r}")


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-9,
                            trace_tol: float = 1e-9, eig_floor: float = -1e-6,
                            context: str = "") -> None:
    """Raise if rho fails hermiticity / unit trace / positivity tolerances."""
    where = f" ({context})" if context else ""
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}{where}")
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_err > herm_tol:
        raise ValueError(f"hermiticity violated: max |rho - rho^dag| = {herm_err:.3e}{where}")
    tr_err = abs(complex(np.trace(rho)) - 1.0)
    if tr_err > trace_tol:
        raise ValueError(f"trace violated: |tr - 1| = {tr_err:.3e}{where}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < eig_floor:
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

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def meta_dict(self) -> dict:
        chan = self.channel.to_dict() if self.channel is not None else None
        return {
            "channel": chan,
            "g": self.g,
            "dt": self.dt,
            "clamp_events": self.clamp_events,
            "initial_state": self.initial_state_tag,
        }


def _rhs(rho: np.ndarray, h: np.ndarray, rate: float, chan: ChannelSpec) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    if chan.kind != KIND_NONE and rate != 0.0:
        out = out + rate * chan.dissipator(rho)
    return out


def evolve(rho0: np.ndarray, grid: TimeGrid, g: float, chan: ChannelSpec,
           initial_state_tag: str = STATE_CUSTOM) -> Trajectory:
    """Fixed-step RK4 over the grid; validates state physicality every step.

    After each step rho is re-Hermitized and trace-renormalized when the
    drift exceeds 1e-12. Raises if hermiticity/trace/positivity tolerances
    are broken (dt too large or rate_clamp too generous).
    """
    validate_density_matrix(rho0, context="initial state")
    h = build_xy_hamiltonian(g)
    times = grid.times()
    dt = grid.dt
    n = grid.n_steps

    # rates at nodes and midpoints, clamped once up front; count every node
    # where the raw signed rate had to be altered (negative, over cap, or
    # non-finite at a coherence zero)
    mids = times[:-1] + dt / 2.0
    eval_times = np.concatenate([times, mids])
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.asarray(chan.rate_raw(eval_times), dtype=float)
        clamped = chan.rate(eval_times)
    n_clamped = int(np.sum((~np.isfinite(raw)) | (raw > chan.rate_clamp) | (raw < 0.0)))
    r_node = clamped[: n + 1]
    r_mid = clamped[n + 1:]

    z_s = np.empty(n + 1)
    z_a = np.empty(n + 1)
    rho = np.array(rho0, dtype=complex)
    z_s[0] = np.real(np.trace(Z_S_OP @ rho))
    z_a[0] = np.real(np.trace(Z_A_OP @ rho))

    for k in range(n):
        k1 = _rhs(rho, h, r_node[k], chan)
        k2 = _rhs(rho + 0.5 * dt * k1, h, r_mid[k], chan)
        k3 = _rhs(rho + 0.5 * dt * k2, h, r_mid[k], chan)
        k4 = _rhs(rho + dt * k3, h, r_node[k + 1], chan)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        rho = 0.5 * (rho + rho.conj().T)                 # control Hermitian drift
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-12:
            rho = rho / tr
        validate_density_matrix(rho, context=f"t={times[k + 1]:.6g}")

        z_s[k + 1] = np.real(np.trace(Z_S_OP @ rho))
        z_a[k + 1] = np.real(np.trace(Z_A_OP @ rho))

    return Trajectory(times=times, z_s=z_s, z_a=z_a, channel=chan, g=g,
                      initial_state_tag=initial_state_tag, clamp_events=n_clamped)


# ---------- trajectory files ----------

TRAJECTORY_HEADER = ("t", "z_s", "z_a")


def write_trajectory(traj: Trajectory, csv_path) -> None:
    """CSV `t,z_s,z_a` plus a JSON meta sidecar `<csv_path>.meta.json`."""
    write_table(csv_path, TRAJECTORY_HEADER, zip(traj.times, traj.z_s, traj.z_a))
    with open(str(csv_path) + ".meta.json", "w") as f:
        json.dump(traj.meta_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def read_trajectory(csv_path) -> Trajectory:
    """Load a trajectory CSV; picks up `<csv_path>.meta.json` when present."""
    _, rows = read_table(csv_path, TRAJECTORY_HEADER)
    times, z_s, z_a = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 3).T
    meta_path = str(csv_path) + ".meta.json"
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
    chan = meta.get("channel")
    return Trajectory(times=times, z_s=z_s, z_a=z_a,
                      channel=None if chan is None else ChannelSpec.from_dict(chan),
                      g=float(meta.get("g", math.nan)),
                      initial_state_tag=meta.get("initial_state", STATE_CUSTOM),
                      clamp_events=int(meta.get("clamp_events", 0)))
