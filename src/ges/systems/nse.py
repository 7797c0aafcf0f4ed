"""Spectral Galerkin truncation of 3-D incompressible flow on the torus.

Convention: period 2pi in every direction, so the leading Stokes
eigenvalue is lambda_1 = 1 and the eigenvalue of wave vector k is
|k|^2.  The energy norm is |u|^2 = sum_k |u_hat_k|^2 over the retained
modes (mirrors included), the dissipation form is ||u||^2 =
sum |k|^2 |u_hat_k|^2, and the dual forcing norm is
||g||_{V'}^2 = sum |g_hat_k|^2 / |k|^2.

The retained mode set is {k in Z^3 : 0 < |k| <= kmax} (Euclidean
radius).  Velocity coefficients are complex 3-vectors, divergence-free
(k . u_hat_k = 0) and Hermitian (u_hat_{-k} = conj(u_hat_k)), so the
underlying field is real.  The advection term is the sharply truncated
convolution with Leray projection, which conserves energy exactly:
Re sum conj(u_hat_k) . B_k = 0 at machine precision.  It is evaluated
pseudo-spectrally in rotational form, -P(curl u x u), on a zero-padded grid
of n >= 3 kmax + 1 points per direction with 9 FFTs per right-hand side
(see kernels.nse_bilinear).  That equals the convolution sum up to
roundoff at O(n^3 log n) cost instead of O(m^2) for m retained modes.

Forcing is a finite list of modes, each a complex scalar law on the
canonical transverse unit direction of its wave vector; exactly the
listed modes are driven, so a real (Hermitian) force must list both k
and -k explicitly.  All forcing norms run over the listed modes only.
The sliding-window bound sup_t int_t^{t+1} ||g||_{V'}^2 defines the
absorbing radius

    R = 2 ||g||_{Lb}^2 / (nu (1 - exp(-nu lambda_1))),

and the source convention takes X = {|u| <= R} verbatim even though R
bounds the squared norm; ball_convention="norm-squared" switches to the
dimensionally consistent {|u|^2 <= R}.  The space's hard ball cap sits
at 2R (at least 1 for vanishing forcing) so absorbing-entry sweeps from
|u(s)| <= 2R stay admissible.

Solutions are integrated by this module's solve_ivp, the Dormand-Prince
5(4) pair with step control and quartic dense output (Dormand & Prince
1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).  It follows
scipy.integrate.solve_ivp(method="RK45") operation for operation, so it
gives the same bits and the same nfev, and it keeps that function's name
and call shape: e2ebench/tracer.py rebinds ges.systems.nse.solve_ivp by
name and reads sol.nfev, t_span and the t_eval keyword.

This is the only module that imports scipy at its top, and only scipy.fft;
ges.systems imports it only when an NSE system or name is asked for.
Keep scipy.fft at module top: building an NSE system then loads it during
set-up, not inside the first solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import scipy.fft as sfft

from .. import kernels
from ..errors import BlowUpError, ForcingFormatError, UsageError
from ..evolution import TrajectoryFamily, TrajectorySample
from ..space import CoeffState, DualMetricSpace

LAMBDA_1 = 1.0
# the window bounds of a forcing law sample t in [0, 4] on a 1e-3 grid
WINDOW = (0.0, 4.0)
WINDOW_DT = 1e-3


# ---------------------------------------------------------------------------
# mode table


class SpectralBasis:
    """Mode bookkeeping for one Galerkin cutoff: lookup tables, mirror
    indices, and each mode's flat index on the zero-padded FFT grid that
    evaluates the advection term."""

    def __init__(self, kmax: int):
        self.kmax = int(kmax)
        if self.kmax < 1:
            raise UsageError(f"Galerkin cutoff kmax must be at least 1, got {kmax}")
        modes = []
        for kx in range(-kmax, kmax + 1):
            for ky in range(-kmax, kmax + 1):
                for kz in range(-kmax, kmax + 1):
                    if 0 < kx * kx + ky * ky + kz * kz <= kmax * kmax:
                        modes.append((kx, ky, kz))
        modes.sort()
        self.modes = np.array(modes, dtype=np.int64)
        self.m = self.modes.shape[0]
        self.kvec = self.modes.astype(np.float64)
        self.ksq = (self.kvec ** 2).sum(axis=1)
        self._row = {tuple(k): i for i, k in enumerate(modes)}
        self.mirror = np.array([self._row[(-k[0], -k[1], -k[2])] for k in modes],
                               dtype=np.int64)
        # products of two retained modes reach 2 kmax per component, so
        # n >= 3 kmax + 1 keeps their aliases off the retained set
        self.grid_n = sfft.next_fast_len(3 * self.kmax + 1)
        self.grid_index = np.ravel_multi_index((self.modes % self.grid_n).T,
                                               (self.grid_n,) * 3)

    def row(self, k) -> int:
        r = self._row.get((int(k[0]), int(k[1]), int(k[2])))
        if r is None:
            raise UsageError(f"mode {tuple(k)} outside the Galerkin cutoff {self.kmax}")
        return r

    def transverse_unit(self, k) -> np.ndarray:
        """Canonical real unit vector perpendicular to k, equal for +-k."""
        rep = max(tuple(int(c) for c in k), tuple(-int(c) for c in k))
        a = np.array([1.0, 0.0, 0.0])
        if rep[1] == 0 and rep[2] == 0:
            a = np.array([0.0, 1.0, 0.0])
        e = np.cross(np.asarray(rep, dtype=float), a)
        return e / np.linalg.norm(e)


@lru_cache(maxsize=8)
def get_basis(kmax: int) -> SpectralBasis:
    return SpectralBasis(kmax)


# ---------------------------------------------------------------------------
# forcing


@dataclass(frozen=True)
class ForcingMode:
    k: tuple[int, int, int]
    amp: complex
    kind: str = "const"  # const | sin | sampled
    omega: float = 0.0
    phase: float = 0.0
    times: tuple = ()
    values: tuple = ()

    def envelope(self, t) -> np.ndarray:
        """Complex coefficient law c(t); vectorised over t."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "const":
            return np.full(t.shape, self.amp, dtype=np.complex128)
        if self.kind == "sin":
            return self.amp * np.sin(self.omega * t + self.phase)
        re = np.interp(t, self.times, [v.real for v in self.values])
        im = np.interp(t, self.times, [v.imag for v in self.values])
        return self.amp * (re + 1j * im)


class ForcingProfile:
    """Finite-mode forcing; exactly the listed modes are driven.

    The field carries g_hat_k = c_k(t) e1(k) on each listed k, with
    e1(k) the canonical transverse unit direction (equal for +-k), so
    ||g(t)||_{V'}^2 = sum over listed modes of |c_k(t)|^2 / |k|^2.
    A real-valued force lists both k and -k with conjugate amplitudes.
    An empty mode list is the zero force.
    """

    def __init__(self, entries: Sequence[ForcingMode]):
        self.entries = list(entries)
        seen = set()
        for e in self.entries:
            if len(e.k) != 3 or not all(isinstance(c, (int, np.integer))
                                        and not isinstance(c, bool) for c in e.k):
                raise ForcingFormatError(f"mode k must be three integers, not {e.k}")
            if e.k == (0, 0, 0):
                raise ForcingFormatError("forcing on the mean mode is not allowed")
            if e.k in seen:
                raise ForcingFormatError(f"mode {e.k} listed twice")
            seen.add(e.k)
            if e.kind not in ("const", "sin", "sampled"):
                raise ForcingFormatError(f"unknown time law {e.kind!r}")
            if e.kind == "sampled" and (len(e.times) < 2 or len(e.times) != len(e.values)):
                raise ForcingFormatError("sampled law needs matching times/values, >= 2")
            numbers = [e.amp.real, e.amp.imag, e.omega, e.phase, *e.times,
                       *(part for v in e.values for part in (v.real, v.imag))]
            if not np.all(np.isfinite(numbers)):
                raise ForcingFormatError(f"non-finite number in the forcing of mode {e.k}")
            if e.kind == "sampled" and np.any(np.diff(e.times) <= 0):
                raise ForcingFormatError(f"sampled times of mode {e.k} must increase "
                                         f"strictly")

    def vprime_norm_sq(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        total = np.zeros(t.shape)
        for e in self.entries:
            ksq = float(e.k[0] ** 2 + e.k[1] ** 2 + e.k[2] ** 2)
            total += np.abs(e.envelope(t)) ** 2 / ksq
        return total

    def dense(self, t: float, basis: SpectralBasis) -> np.ndarray:
        g = np.zeros((basis.m, 3), dtype=np.complex128)
        for e in self.entries:
            g[basis.row(e.k)] += complex(e.envelope(t)) * basis.transverse_unit(e.k)
        return g

    def is_hermitian(self) -> bool:
        """Whether the listed modes pair off so the force field is real."""
        by_k = {e.k: e for e in self.entries}
        probe = np.linspace(0.0, 3.0, 7)
        for e in self.entries:
            m = by_k.get((-e.k[0], -e.k[1], -e.k[2]))
            if m is None:
                return False
            if np.abs(m.envelope(probe) - np.conj(e.envelope(probe))).max() > 1e-12:
                return False
        return True

    def is_static(self) -> bool:
        return all(e.kind == "const" for e in self.entries)

    # -- window bounds -------------------------------------------------------

    def translational_bound(self) -> float:
        """sup over t in WINDOW of int_t^{t+1} ||g||_{V'}^2, trapezoid."""
        (lo, hi), dt = WINDOW, WINDOW_DT
        if self.is_static():
            return float(self.vprime_norm_sq(lo))
        m = int(round(1.0 / dt))
        grid = lo + dt * np.arange(int(math.ceil((hi - lo) / dt)) + m + 1)
        f = self.vprime_norm_sq(grid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (f[1:] + f[:-1]))])
        sums = cum[m:] - cum[:-m]
        return float(sums.max())

    def window_integral_sup(self, delta: float) -> float:
        """sup over t in WINDOW of int_t^{t+delta} ||g||_{V'}^2."""
        (lo, hi), dt = WINDOW, WINDOW_DT
        if self.is_static():
            return float(self.vprime_norm_sq(lo)) * delta
        grid = np.arange(lo, hi + 1.0 + dt, dt)
        f = self.vprime_norm_sq(grid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(grid) * (f[1:] + f[:-1]))])
        starts = np.arange(lo, hi, dt)
        vals = np.interp(starts + delta, grid, cum) - np.interp(starts, grid, cum)
        return float(vals.max())

    def normality_check(self, eps_list: Sequence[float]) -> list[tuple[float, float]]:
        """Largest delta <= 1 with sup_t int_t^{t+delta} <= eps, found by
        40 bisection steps for each eps.  All finite-mode profiles here
        are normal, so every eps receives a positive delta."""
        out = []
        for eps in eps_list:
            if eps <= 0:
                raise UsageError("eps must be positive")
            if self.window_integral_sup(1.0) <= eps:
                out.append((float(eps), 1.0))
                continue
            lo_d, hi_d = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo_d + hi_d)
                if self.window_integral_sup(mid) <= eps:
                    lo_d = mid
                else:
                    hi_d = mid
            out.append((float(eps), float(lo_d)))
        return out

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, obj: dict) -> "ForcingProfile":
        if not isinstance(obj, dict) or "modes" not in obj:
            raise ForcingFormatError("forcing file must be an object with 'modes'")
        if not isinstance(obj["modes"], list):
            raise ForcingFormatError("'modes' must be a list (empty means zero force)")
        entries = []
        for raw in obj["modes"]:
            try:
                amp_raw = raw["amp"]
                tspec = raw.get("time", {"kind": "const"})
                entries.append(ForcingMode(
                    k=tuple(raw["k"]),
                    amp=complex(_number(amp_raw[0]), _number(amp_raw[1])),
                    kind=tspec["kind"],
                    omega=_number(tspec.get("omega", 0.0)),
                    phase=_number(tspec.get("phase", 0.0)),
                    times=tuple(_number(x) for x in tspec.get("times", ())),
                    values=tuple(complex(_number(v[0]), _number(v[1]))
                                 for v in tspec.get("values", ())),
                ))
            except (KeyError, TypeError, IndexError, OverflowError) as exc:
                raise ForcingFormatError(f"malformed forcing mode: {exc}") from exc
        return cls(entries)

    @classmethod
    def load(cls, path) -> "ForcingProfile":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ForcingFormatError(f"cannot read forcing file: {exc}") from exc
        return cls.from_dict(obj)

    def to_dict(self) -> dict:
        modes = []
        for e in self.entries:
            tspec: dict = {"kind": e.kind}
            if e.kind == "sin":
                tspec.update(omega=e.omega, phase=e.phase)
            if e.kind == "sampled":
                tspec.update(times=list(e.times),
                             values=[[v.real, v.imag] for v in e.values])
            modes.append({"k": list(e.k), "amp": [e.amp.real, e.amp.imag],
                          "time": tspec})
        return {"modes": modes}


def _number(x) -> float:
    """A JSON number of a forcing file as a float; a bool is no number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ForcingFormatError(f"expected a number, not {x!r}")
    return float(x)


def default_forcing() -> ForcingProfile:
    """Constant real forcing on the lowest mode pair, scaled so the
    translational bound sup_t int_t^{t+1} ||g||_{V'}^2 is exactly 1."""
    amp = complex(1.0 / math.sqrt(2.0))
    return ForcingProfile([ForcingMode(k=(1, 0, 0), amp=amp),
                           ForcingMode(k=(-1, 0, 0), amp=amp)])


def absorbing_radius(l2b_bound: float, nu: float) -> float:
    """R = 2 ||g||_{Lb}^2 / (nu (1 - exp(-nu lambda_1))); inf where the
    denominator underflows to zero."""
    if nu <= 0:
        raise UsageError("nu must be positive")
    den = nu * (1.0 - math.exp(-nu * LAMBDA_1))
    return 2.0 * l2b_bound / den if den > 0 else math.inf


def absorbing_entry_time(radius: float, nu: float) -> float:
    """Upper bound on the time for |u(s)| <= 2R sweeps to enter {|u| <= R}."""
    r = radius
    if r * r <= r / 2.0:
        raise UsageError("absorbing set is empty under this convention")
    return math.log(4.0 * r * r / (r * r - r / 2.0)) / (nu * LAMBDA_1)


# ---------------------------------------------------------------------------
# the ODE solver

# Dormand-Prince 5(4): nodes, stages, 5th-order weights, error weights
# (5th minus 4th order, last entry on the FSAL stage) and the quartic
# dense-output coefficients of Shampine's optimal c6 (Math. Comp. 1986)
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float, t_eval):
    """Integrate y' = fun(t, y) forward over t_span with adaptive
    Dormand-Prince 5(4) steps; sample the dense output at the increasing
    times t_eval, which lie in t_span.

    Returns an object with y (columns are the samples; writable), nfev,
    success and message.  A step that would have to shrink below ten ulps
    of t, as a non-finite right-hand side forces it to, ends the solve
    with success False."""
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("solve_ivp integrates forward over a nonempty span")
    t_eval = np.asarray(t_eval)
    y = np.asarray(y0)
    f = fun(t, y)

    # the initial step (Hairer, Norsett & Wanner II.4), clipped to the span
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t)
    nfev = 2

    K = np.empty((7, y.size), dtype=y.dtype)
    samples = []
    done = 0  # t_eval[:done] are sampled
    success, message = True, ("The solver successfully reached the end of the "
                              "integration interval.")
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                success = False
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            # max(MIN_FACTOR, nan) is MIN_FACTOR: a NaN error shrinks the step
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        if not success:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new

        end = np.searchsorted(t_eval, t, side="right")
        if end > done:
            h = t - t_old
            x = (t_eval[done:end] - t_old) / h
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            out = h * np.dot(K.T.dot(_P), p)
            out += y_old[:, None]
            samples.append(out)
            done = end
    y_out = np.hstack(samples) if samples else np.empty((y.size, 0), y.dtype)
    return SimpleNamespace(y=y_out, nfev=nfev, success=success, message=message)


# ---------------------------------------------------------------------------
# the system


def make_nse_space(ball_radius: float, kmax: int) -> DualMetricSpace:
    return DualMetricSpace(tag="nse", index_dim=3, component_dim=3,
                           truncation_radius=2 * kmax, ball_radius=ball_radius)


class NSESystem(TrajectoryFamily):
    system_id = "nse"
    # set per instance: true only for a static force, and then evolve_block
    # makes one solve per seed instead of one per run of equal start times
    autonomous = False
    expectations = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self, nu: float = 1.0, forcing: ForcingProfile | None = None,
                 kmax: int = 4, ball_convention: str = "radius"):
        if ball_convention not in ("radius", "norm-squared"):
            raise UsageError("ball_convention must be 'radius' or 'norm-squared'")
        self.nu = float(nu)
        self.forcing = forcing if forcing is not None else default_forcing()
        self.basis = get_basis(kmax)
        for e in self.forcing.entries:
            self.basis.row(e.k)  # forcing must live inside the cutoff
        self._visc = -self.nu * self.basis.ksq[:, None]
        self.ball_convention = ball_convention
        with np.errstate(over="ignore"):  # an overflow is refused just below
            self.l2b_bound = self.forcing.translational_bound()
        if not math.isfinite(self.l2b_bound):
            raise ForcingFormatError("forcing too large: its translational bound "
                                     "is not finite")
        self.radius = absorbing_radius(self.l2b_bound, self.nu)
        if not math.isfinite(self.radius) or (self.radius <= 0 < self.l2b_bound):
            raise UsageError(f"nu={self.nu:g} gives no finite positive absorbing radius")
        ball = max(2.0 * self.absorbing_set_radius(), 1.0)
        super().__init__(make_nse_space(ball, kmax))
        self.autonomous = self.forcing.is_static()
        self._g_static = (self.forcing.dense(0.0, self.basis)
                          if self.forcing.is_static() else None)

    # -- conventions ------------------------------------------------------------

    def absorbing_set_radius(self) -> float:
        """Norm radius of the absorbing set X.

        The source convention uses R itself as the norm bound; the
        'norm-squared' flag switches to sqrt(R) for {|u|^2 <= R}.
        """
        return self.radius if self.ball_convention == "radius" else math.sqrt(self.radius)

    # -- state packing ------------------------------------------------------------

    def dense_values(self, x: CoeffState) -> np.ndarray:
        self.space.check_member(x)
        v = np.zeros((self.basis.m, 3), dtype=np.complex128)
        for row_idx, row_val in zip(x.idx, x.val):
            v[self.basis.row(row_idx)] = row_val
        return v

    def state_from_dense(self, v: np.ndarray) -> CoeffState:
        return self.space.state(self.basis.modes, v)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Leray projection plus Hermitian symmetrisation of a dense field."""
        kd = (v * self.basis.kvec).sum(axis=1) / self.basis.ksq
        v = v - kd[:, None] * self.basis.kvec
        return 0.5 * (v + np.conj(v[self.basis.mirror]))

    # -- dynamics -----------------------------------------------------------------

    def g_dense(self, t: float) -> np.ndarray:
        if self._g_static is not None:
            return self._g_static
        return self.forcing.dense(t, self.basis)

    def rhs_dense(self, t: float, v: np.ndarray) -> np.ndarray:
        adv = kernels.nse_bilinear(v, self.basis.kvec, self.basis.grid_index,
                                   self.basis.grid_n)
        return self._visc * v + adv + self.g_dense(t)

    def bilinear(self, x: CoeffState) -> CoeffState:
        """The projected advection term alone (as it enters the right side)."""
        v = self.dense_values(x)
        adv = kernels.nse_bilinear(v, self.basis.kvec, self.basis.grid_index,
                                   self.basis.grid_n)
        return self.state_from_dense(adv)

    def _integrate(self, s: float, v0: np.ndarray, t_end: float,
                   t_eval) -> np.ndarray:
        """One RK45 solve from the dense field v0 at time s to t_end; the
        columns of the result are the flat fields at t_eval.  A failed solve
        or a non-finite sample raises BlowUpError."""
        m = self.basis.m

        def fun(t, y):
            return self.rhs_dense(t, y.reshape(m, 3)).ravel()

        sol = solve_ivp(fun, (s, t_end), v0.ravel(), rtol=1e-8, atol=1e-11,
                        t_eval=t_eval)
        if not sol.success:
            raise BlowUpError(f"integration failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise BlowUpError(f"integration from t={s:g} to t={t_end:g} gave a "
                              f"non-finite coefficient")
        return sol.y

    def evolve(self, s, x, ts, branch=0):
        if branch != 0:
            raise UsageError("single-valued system has only branch 0")
        ts = [float(t) for t in ts]
        if any(t < s for t in ts):
            raise UsageError("sample times must not precede the start time")
        v0 = self.dense_values(x)
        if max(ts) == s:
            return [self.state_from_dense(v0) for _ in ts]

        m = self.basis.m
        t_eval = sorted(set(ts))
        y = self._integrate(s, v0, max(ts), t_eval)
        by_time = {tv: self.state_from_dense(y[:, i].reshape(m, 3))
                   for i, tv in enumerate(t_eval)}
        return [by_time[t] for t in ts]

    def evolve_block(self, x, starts, ts, branch=0):
        """Under a static force P(t, s) x = S(t - s) x, so one solve from
        time 0, sampled at every duration t - s, gives all of the seed's
        images; a time-dependent force keeps the per-start default."""
        if not self.autonomous:
            return super().evolve_block(x, starts, ts, branch=branch)
        durations = [float(t) - float(s) for s, t in zip(starts, ts)]
        return [(st.idx, st.val[None])
                for st in self.evolve(0.0, x, durations, branch=branch)]

    # -- energy functionals ----------------------------------------------------------

    def energy_norms(self, v: np.ndarray, t: float) -> tuple[float, float, float]:
        """(|u|^2, ||u||^2, <g, u>) of a dense field at time t."""
        esq = float((np.abs(v) ** 2).sum())
        vsq = float((self.basis.ksq[:, None] * np.abs(v) ** 2).sum())
        pair = float(np.real(np.conj(self.g_dense(t)) * v).sum())
        return esq, vsq, pair

    def energy_sample(self, s: float, x: CoeffState, t_hi: float,
                      n: int = 2001) -> TrajectorySample:
        """Integrate once and sample the three energy functionals densely."""
        grid = np.linspace(s, t_hi, n)
        m = self.basis.m
        y = self._integrate(s, self.dense_values(x), t_hi, grid)
        norms = np.empty(n)
        vsq = np.empty(n)
        pair = np.empty(n)
        for i, t in enumerate(grid):
            v = y[:, i].reshape(m, 3)
            esq, vs, pr = self.energy_norms(v, t)
            norms[i] = math.sqrt(esq)
            vsq[i] = vs
            pair[i] = pr
        return TrajectorySample(grid, norms, vnorm_sq=vsq, force_pair=pair)

    # -- sampling -----------------------------------------------------------------

    def sample_states(self, count, rng, radius: float | None = None,
                      active_kmax: int = 2):
        """Random divergence-free real fields on the low modes, scaled to a
        strong norm between 0.2 and 1.0 of the given radius (default: the
        absorbing set radius)."""
        cap = radius if radius is not None else self.absorbing_set_radius()
        if cap <= 0:
            cap = 1.0  # zero forcing: sample the unit ball instead
        rows = np.where(self.basis.ksq <= active_kmax ** 2)[0]
        out = []
        for _ in range(count):
            v = np.zeros((self.basis.m, 3), dtype=np.complex128)
            v[rows] = rng.normal(size=(rows.size, 3)) + 1j * rng.normal(size=(rows.size, 3))
            v = self.project(v)
            nrm = math.sqrt((np.abs(v) ** 2).sum())
            v *= rng.uniform(0.2, 1.0) * cap / nrm
            out.append(self.state_from_dense(v))
        return out

    def incompressibility_defect(self, x: CoeffState) -> float:
        v = self.dense_values(x)
        num = np.abs((v * self.basis.kvec).sum(axis=1))
        den = np.sqrt(self.basis.ksq) * np.sqrt((np.abs(v) ** 2).sum(axis=1)) + 1e-300
        return float((num / den).max())
