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
pseudo-spectrally in rotational form, -P(curl u x u), on a grid of
n >= 3 kmax + 1 points per direction, each transform a separable partial
DFT over the 2 kmax + 1 retained frequency lines per axis, by small dense
matrix products (see kernels.nse_bilinear).  That equals the convolution
sum up to roundoff at O(n^3 kmax) cost instead of O(m^2) for m retained
modes.

Forcing is a finite list of modes, each a complex scalar law on the
canonical transverse unit direction of its wave vector; exactly the
listed modes are driven, and the force must be real (Hermitian): each k
is listed together with -k, the same time law, the conjugate amplitude
and the conjugate samples; NSESystem refuses any other force, and any
seed that is not exactly Hermitian.  The sorted mode list is symmetric
under k -> -k, so its rows m // 2 on hold one mode of each +-k pair, and
those rows are all the solver integrates.  state_from_dense rebuilds the
full field from them by conjugation, so every evolved state is exactly
real, whatever order the stepper's BLAS products sum in.  All forcing
norms run over the listed modes only.
The sliding-window bound sup_t int_t^{t+1} ||g||_{V'}^2 defines the
absorbing radius

    R = 2 ||g||_{Lb}^2 / (nu (1 - exp(-nu lambda_1))),

and the source convention takes X = {|u| <= R} verbatim even though R
bounds the squared norm; ball_convention="norm-squared" switches to the
dimensionally consistent {|u|^2 <= R}.  The space's hard ball cap sits
at 2R (at least 1 for vanishing forcing) so absorbing-entry sweeps from
|u(s)| <= 2R stay admissible.

Solutions are integrated by this module's solve_ivp, the Dormand-Prince
8(5,3) pair (DOP853) with step control and 7th-order dense output
(Prince & Dormand 1981; Hairer, Norsett & Wanner, Solving ODEs I, II.6
and II.10).  Its steps never clip to the last sample: every sample,
the last included, is read off the dense output of the step that covers
it, and the solver may evaluate the right-hand side up to one step past
the last sample.  So a run's step sequence depends only on its start
time and state, and a sample's bits only on its start, its state and its
time, not on the other samples asked for with it.  Steps are capped at
_MAX_STEP model-time units: step control bounds the error at step ends,
and a sample read off the dense output inside a longer step is less
accurate (a lone decaying Stokes mode sampled at t = 0.7 misses
exp(-t) by 2.7e-7 relative without the cap, by 1.5e-10 with it).  It
follows scipy.integrate.solve_ivp(method="DOP853",
max_step=_MAX_STEP) over (start, its last step end) operation for
operation, so it gives the same bits and the same nfev, and it keeps that
function's name and call shape: e2ebench/tracer.py rebinds
ges.systems.nse.solve_ivp by name and reads sol.nfev, t_span and the
t_eval keyword.  nfev counts every right-hand side, the three extra stages
of each step that holds a sample included.  Each such step evaluates its
dense output in place, _DENSE_ROWS sample rows at a time, into one array
allocated up front or into one reusable buffer that a consumer
(energy_sample) reduces as it fills.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .. import kernels
from ..errors import BlowUpError, ForcingFormatError, UsageError
from ..evolution import TrajectoryFamily, TrajectorySample
from ..space import CoeffState, DualMetricSpace, sorted_unique

LAMBDA_1 = 1.0


# ---------------------------------------------------------------------------
# mode table


class SpectralBasis:
    """Mode bookkeeping for one Galerkin cutoff: the sorted mode list, which
    is symmetric under k -> -k (row m - 1 - i holds -k of row i), and each
    mode's slot in the cube of frequency lines that evaluates the advection
    term (see kernels.nse_bilinear)."""

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
        # products of two retained modes reach 2 kmax per component, so
        # n >= 3 kmax + 1 keeps their aliases off the retained set
        n = 3 * self.kmax + 1
        self.grid_n = n + n % 2
        # the (kz, ky, kx) cube of lines -kmax..kmax (kx 0..kmax) holds k,
        # or -k if kx < 0
        k = self.kmax
        half = np.where(self.modes[:, :1] < 0, -self.modes, self.modes) + (0, k, k)
        self.grid_index = np.ravel_multi_index(half.T[::-1], (2 * k + 1, 2 * k + 1, k + 1))

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

    def window_sup(self, delta: float) -> float:
        """sup over all t of F(t) = int_t^{t+delta} |c|^2, in closed form.  A
        sampled law is constant outside its knots, so F is constant outside
        [times[0] - delta, times[-1]] and cubic between breakpoints, where t
        or t + delta is a knot: it peaks at one of them or at a root of the
        quadratic F' = |c(t + delta)|^2 - |c(t)|^2."""
        if self.kind == "sin" and self.omega != 0.0:
            w = abs(self.omega)
            return np.abs(self.amp) ** 2 * (delta / 2.0 + abs(math.sin(w * delta)) / (2.0 * w))
        if self.kind != "sampled":
            return np.abs(self.envelope(0.0)) ** 2 * delta  # a constant law
        knots = np.array(self.times)

        def f(t):
            return np.abs(self.envelope(t)) ** 2

        def simpson(a, b):  # int_a^b f, exact where f is one quadratic
            return (b - a) * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b)) / 6.0

        def prim(t):  # int_{knots[0]}^t f
            j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 1)
            return cum[j] + simpson(knots[j], t)

        cum = np.concatenate([[0.0], np.cumsum(simpson(knots[:-1], knots[1:]))])
        p = sorted_unique(np.concatenate([knots, knots - delta]))
        p = p[(p >= knots[0] - delta) & (p <= knots[-1])]
        mid, half = 0.5 * (p[1:] + p[:-1]), 0.5 * (p[1:] - p[:-1])
        # F'(mid + half u) = a u^2 + b u + c on a piece: both roots, NaN if complex
        dp, dm, dq = (f(t + delta) - f(t) for t in (p[:-1], mid, p[1:]))
        a, b, c = 0.5 * (dp + dq) - dm, 0.5 * (dq - dp), dm
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            u = np.concatenate([r / a, c / r])
        t = np.concatenate([p, (np.tile(mid, 2) + np.tile(half, 2) * u)[np.abs(u) < 1.0]])
        return float((prim(t + delta) - prim(t)).max())


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

    def is_hermitian(self) -> bool:
        """Whether the force field is real: each -k is listed with k's time
        law, the conjugate amplitude and the conjugate samples.  A real
        force written in another equivalent form reads False."""
        by_k = {e.k: e for e in self.entries}
        for e in self.entries:
            mirror = (-e.k[0], -e.k[1], -e.k[2])
            want = replace(e, k=mirror, amp=e.amp.conjugate(),
                           values=tuple(v.conjugate() for v in e.values))
            if by_k.get(mirror) != want:
                return False
        return True

    def is_static(self) -> bool:
        return all(e.kind == "const" for e in self.entries)

    # -- window bounds -------------------------------------------------------

    def translational_bound(self) -> float:
        """||g||_{L2b}^2: sup over t of int_t^{t+1} ||g||_{V'}^2."""
        return self.window_integral_sup(1.0)

    def window_integral_sup(self, delta: float) -> float:
        """sup over t of int_t^{t+delta} ||g||_{V'}^2, bounded by the sum of the
        modes' own sups over |k|^2: exact when they share one time law."""
        return float(sum(e.window_sup(delta) / (e.k[0] ** 2 + e.k[1] ** 2 + e.k[2] ** 2)
                         for e in self.entries))

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

# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10).  Stages 0-11 take a step, stage 12 is the FSAL derivative at its
# end, and stages 13-15 serve only the dense output.  _A[s] combines the
# stages before s; _B (= _A[12, :12]) gives the 8th-order step; _E5 and _E3
# give the 5th- and 3rd-order error estimates over stages 0-12; _D holds the
# upper four rows of the 7th-order dense output over all 16 stages.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A = np.zeros((16, 16))
_A[1, :1] = [0.05260015195876773]
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_A[6, [0, 3, 4, 5]] = [0.037109375, 0.17025221101954405, 0.06021653898045596,
                       -0.017578125]
_A[7, [0, 3, 4, 5, 6]] = [0.03709200011850479, 0.17038392571223998,
                          0.10726203044637328, -0.015319437748624402,
                          0.008273789163814023]
_A[8, [0, 3, 4, 5, 6, 7]] = [0.6241109587160757, -3.3608926294469414,
                             -0.868219346841726, 27.59209969944671,
                             20.154067550477894, -43.48988418106996]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [0.47766253643826434, -2.4881146199716677,
                                -0.590290826836843, 21.230051448181193,
                                15.279233632882423, -33.28821096898486,
                                -0.020331201708508627]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-0.9371424300859873, 5.186372428844064,
                                    1.0914373489967295, -8.149787010746927,
                                    -18.52006565999696, 22.739487099350505,
                                    2.4936055526796523, -3.0467644718982196]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.273310147516538, -10.53449546673725,
                                        -2.0008720582248625, -17.9589318631188,
                                        27.94888452941996, -2.8589982771350235,
                                        -8.87285693353063, 12.360567175794303,
                                        0.6433927460157636]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [0.054293734116568765, 4.450312892752409,
                                      1.8915178993145003, -5.801203960010585,
                                      0.3111643669578199, -0.1521609496625161,
                                      0.20136540080403034, 0.04471061572777259]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [0.056167502283047954, 0.25350021021662483,
                                       -0.2462390374708025, -0.12419142326381637,
                                       0.15329179827876568, 0.00820105229563469,
                                       0.007567897660545699, -0.008298]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [0.03183464816350214, 0.028300909672366776,
                                        0.053541988307438566, -0.05492374857139099,
                                        -0.00010834732869724932,
                                        0.0003825710908356584,
                                        -0.00034046500868740456,
                                        0.1413124436746325]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-0.42889630158379194, -4.697621415361164,
                                       7.683421196062599, 4.06898981839711,
                                       0.3567271874552811, -0.0013990241651590145,
                                       2.9475147891527724, -9.15095847217987]
_B = _A[12, :12]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.01312004499419488, -1.2251564463762044,
                                   -0.4957589496572502, 1.6643771824549864,
                                   -0.35032884874997366, 0.3341791187130175,
                                   0.08192320648511571, -0.022355307863886294]
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178,
     -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
# the longest step, in model time: samples come from the dense output,
# which loses accuracy inside longer steps (see the module doc)
_MAX_STEP = 0.5
# sample rows per block of the dense output (1.5 MB at kmax 4)
_DENSE_ROWS = 256


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray):
    """The step's error: the 5th-order estimate, damped where the 3rd-order
    one is small against it, as an RMS over scale."""
    err5_sq = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
    err3_sq = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
    if err5_sq == 0 and err3_sq == 0:
        return 0.0
    return np.abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * len(scale))


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float, t_eval, sink=None):
    """Integrate y' = fun(t, y) forward from t_span[0] with adaptive
    Dormand-Prince 8(5,3) steps of at most _MAX_STEP; sample the
    7th-order dense output at the increasing times t_eval, which lie in
    t_span, and stop after the step that covers t_eval[-1].

    No step is clipped to t_span, so the steps depend only on t_span[0]
    and y0, and the last step may end past t_span[1].  This is scipy's
    DOP853 run with max_step=_MAX_STEP over (t_span[0], the last step's
    end), bit for bit.  Returns an object with y (columns are the samples;
    a writable view), nfev (every call of fun, the dense output's three
    per sampled step included), success and message.  A step that would
    have to shrink below ten ulps of t, as a non-finite right-hand side
    forces it to, ends the solve with success False.

    Given sink, y is None and sink(first, block) gets the samples in order
    instead, block[j] being sample first + j, in one buffer of _DENSE_ROWS
    rows that it must not keep.  Each row takes the same operations either
    way, so the bits match."""
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("solve_ivp integrates forward over a nonempty span")
    t_eval = np.asarray(t_eval)
    y = np.asarray(y0)
    f = fun(t, y)

    # the initial step (Hairer, Norsett & Wanner II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, _MAX_STEP)
    nfev = 2

    K = np.empty((16, y.size), dtype=y.dtype)
    F = np.empty((7, y.size), dtype=y.dtype)  # the dense output's coefficients
    # one row per sample: every sample, or the buffer a consumer is handed,
    # whose row 0 is sample `first`
    rows = t_eval.size if sink is None else min(_DENSE_ROWS, t_eval.size)
    out = np.empty((rows, y.size), dtype=y.dtype)
    done = first = 0  # t_eval[:done] are sampled
    success, message = True, ("The solver successfully reached the end of the "
                              "integration interval.")
    while done < t_eval.size:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > _MAX_STEP:
            h_abs = _MAX_STEP
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                success = False
                message = "Required step size is less than spacing between numbers."
                break
            t_new = t + h_abs
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = fun(t + h, y_new)
            K[12] = f_new
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # a non-finite stage makes the norm NaN, which rejects the step
            with np.errstate(invalid="ignore"):
                error_norm = _error_norm(K[:13], h, scale)
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
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new

        end = np.searchsorted(t_eval, t, side="right")
        if end > done:
            for s in range(13, 16):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t_old + _C[s] * h, y_old + dy)
            nfev += 3
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f + f_old)
            F[3:] = h * np.dot(_D, K)
            while done < end:
                if done - first == rows:  # only a consumer's buffer fills
                    sink(first, out)
                    first = done
                stop = min(end, done + _DENSE_ROWS, first + rows)
                # Horner's rule in x and 1 - x, in place in the samples' rows
                x = (t_eval[done:stop, None] - t_old) / h
                block = out[done - first:stop - first]
                block[...] = 0
                for i, row in enumerate(F[::-1]):
                    block += row
                    block *= x if i % 2 == 0 else 1 - x
                block += y_old
                done = stop
    if sink is not None and done > first:
        sink(first, out[:done - first])
    return SimpleNamespace(y=None if sink is not None else out[:done].T, nfev=nfev,
                           success=success, message=message)


# ---------------------------------------------------------------------------
# the system


def make_nse_space(ball_radius: float, kmax: int) -> DualMetricSpace:
    return DualMetricSpace(tag="nse", index_dim=3, component_dim=3,
                           truncation_radius=2 * kmax, ball_radius=ball_radius)


class NSESystem(TrajectoryFamily):
    system_id = "nse"
    # set per instance: true only for a static force
    autonomous = False
    expectations = {"weak_attractor": True, "strong_attractor": True}

    def __init__(self, nu: float = 1.0, forcing: ForcingProfile | None = None,
                 kmax: int = 4, ball_convention: str = "radius"):
        if ball_convention not in ("radius", "norm-squared"):
            raise UsageError("ball_convention must be 'radius' or 'norm-squared'")
        self.nu = float(nu)
        self.forcing = forcing if forcing is not None else default_forcing()
        self.basis = get_basis(kmax)
        # each listed mode's row among the integrated rows m // 2 on (every
        # mode must lie inside the cutoff) and its transverse direction,
        # looked up once for every force evaluation
        h = self.basis.m // 2
        rows = [(e, self.basis.row(e.k) - h) for e in self.forcing.entries]
        self._forced = [(e, r, self.basis.transverse_unit(e.k)) for e, r in rows if r >= 0]
        if not self.forcing.is_hermitian():
            raise ForcingFormatError(
                "the force must be real: list each mode's -k with the same time "
                "law, the conjugate amplitude and the conjugate sampled values")
        if not math.isfinite(self.nu * self.basis.kmax ** 2):
            raise UsageError(f"nu={self.nu:g} gives a non-finite viscous rate "
                             f"nu * kmax^2")
        self._visc = -self.nu * self.basis.ksq[h:, None]
        self.ball_convention = ball_convention
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
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
        self._g_static = None  # g_dense evaluates the force until this is set
        if self.autonomous:
            self._g_static = self.g_dense(0.0)

    # -- conventions ------------------------------------------------------------

    def absorbing_set_radius(self) -> float:
        """Norm radius of the absorbing set X.

        The source convention uses R itself as the norm bound; the
        'norm-squared' flag switches to sqrt(R) for {|u|^2 <= R}.
        """
        return self.radius if self.ball_convention == "radius" else math.sqrt(self.radius)

    # -- state packing ------------------------------------------------------------

    def dense_values(self, x: CoeffState) -> np.ndarray:
        """Rows m // 2 on of the dense field of a state, which must be real:
        exactly Hermitian."""
        self.space.check_member(x)
        v = np.zeros((self.basis.m, 3), dtype=np.complex128)
        for row_idx, row_val in zip(x.idx, x.val):
            v[self.basis.row(row_idx)] = row_val
        if not np.array_equal(v[::-1], np.conj(v)):
            raise UsageError("an NSE state must be a real field: each mode -k "
                             "must hold the conjugate of mode k")
        return v[self.basis.m // 2:]

    def state_from_dense(self, z: np.ndarray) -> CoeffState:
        """The real state whose rows m // 2 on are z."""
        return self.space.state(self.basis.modes, np.concatenate([np.conj(z[::-1]), z]))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Leray projection w of a full dense field, then its Hermitian part
        (w + conj(w[-k])) / 2, which is Hermitian bit for bit."""
        kd = (v * self.basis.kvec).sum(axis=1) / self.basis.ksq
        w = v - kd[:, None] * self.basis.kvec
        return 0.5 * (w + np.conj(w[::-1]))

    # -- dynamics -----------------------------------------------------------------

    def g_dense(self, t: float) -> np.ndarray:
        if self._g_static is not None:
            return self._g_static
        g = np.zeros((self.basis.m // 2, 3), dtype=np.complex128)
        for e, row, d in self._forced:
            g[row] += complex(e.envelope(t)) * d
        return g

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

    def _integrate(self, s: float, v0: np.ndarray, t_eval, sink=None):
        """One DOP853 solve from v0, rows m // 2 on of a dense field, at time s;
        the columns of the result are those rows, flat, at the increasing
        times t_eval, the last above s, or None when they stream to sink (see
        solve_ivp).  A failed solve or a non-finite sample raises BlowUpError."""

        def fun(t, y):
            return self.rhs_dense(t, y.reshape(-1, 3)).ravel()

        t_end = t_eval[-1]

        def check(y):
            if not np.all(np.isfinite(y)):
                raise BlowUpError(f"integration from t={s:g} to t={t_end:g} gave a "
                                  f"non-finite coefficient")
            return y

        sol = solve_ivp(fun, (s, t_end), v0.ravel(), rtol=1e-8, atol=1e-11,
                        t_eval=t_eval, sink=None if sink is None else
                        lambda first, block: sink(first, check(block)))
        if not sol.success:
            raise BlowUpError(f"integration failed: {sol.message}")
        return check(sol.y) if sink is None else None

    def _evolve(self, s, x, ts, branch):
        """One group on the basis modes: the samples' dense fields, each
        bitwise what state_from_dense stores."""
        v0 = self.dense_values(x)
        if not ts:
            return []
        if max(ts) == s:
            z = np.broadcast_to(v0, (len(ts), *v0.shape))
        else:
            t_eval = sorted(set(map(float, ts)))
            y = self._integrate(s, v0, t_eval)
            z = y.T.reshape(len(t_eval), -1, 3)[np.searchsorted(t_eval, ts)]
        return [(self.basis.modes, np.concatenate([np.conj(z[:, ::-1]), z], axis=1))]

    # -- energy functionals ----------------------------------------------------------

    def energy_sample(self, s: float, x: CoeffState, t_hi: float,
                      n: int = 2001) -> TrajectorySample:
        """Integrate once and sample the three energy functionals densely:
        |u|^2, ||u||^2 and <g, u>, each reduced block by block as the solve
        streams its samples, so no array of every sample exists.  The one
        run comes from _check_run, so the solve is the one that
        evolve(s, x, grid) makes: a static force runs from time 0 over the
        durations t - s.  The force pairing reads the true times.  The solve
        holds one mode of each +-k pair, and a mode and its mirror add the
        same term, so each sum over it is doubled; |u| stays this half sum,
        since packing every sample as a full field would hold n full states."""
        grid = np.linspace(s, t_hi, n)
        (r, run_ts), = self._check_run(x, [s] * n, grid, 0)
        # y's rows are (mode, component)
        ksq = np.repeat(self.basis.ksq[self.basis.m // 2:], 3)
        esq, vsq, pair = np.empty(n), np.empty(n), np.zeros(n)

        def reduce(first, block):
            y = block.T
            re, im = y.real, y.imag  # views: nothing of y's size is allocated
            j = slice(first, first + y.shape[1])
            esq[j] = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
            vsq[j] = (np.einsum("i,ij,ij->j", ksq, re, re)
                      + np.einsum("i,ij,ij->j", ksq, im, im))
            for e, row, d in self._forced:  # g vanishes off the listed modes
                pair[j] += np.real(np.conj(e.envelope(grid[j]))
                                   * (d @ y[3 * row:3 * row + 3]))

        self._integrate(r, self.dense_values(x), run_ts, sink=reduce)
        return TrajectorySample(grid, np.sqrt(2.0 * esq), vnorm_sq=2.0 * vsq,
                                force_pair=2.0 * pair)

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
            out.append(self.state_from_dense(v[self.basis.m // 2:]))
        return out

    def incompressibility_defect(self, x: CoeffState) -> float:
        v, h = self.dense_values(x), self.basis.m // 2
        num = np.abs((v * self.basis.kvec[h:]).sum(axis=1))
        den = np.sqrt(self.basis.ksq[h:]) * np.sqrt((np.abs(v) ** 2).sum(axis=1)) + 1e-300
        return float((num / den).max())
