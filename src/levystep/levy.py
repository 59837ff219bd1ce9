"""Jump-measure models on the real line.

A model is the Levy measure nu split at the unit circle: a *small* part on
0 < |x| < 1 (finitely many weighted atoms, or a symmetric power-law density
c|x|^(-1-a), 0 < a < 2, which has infinite total mass) plus a finite *tail*
part on |x| >= 1 given by atoms.  Two scalar mark-amplitude functions p (small
region) and q (tail) ride along with the model because every moment the
schemes need is an integral of p or q against nu.

Truncation removes the inner ball 0 < |x| <= eps from the small region; what
remains (the disc eps < |x| < 1 plus the tail) has finite mass and can be
simulated as a compound Poisson stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import integrate

from .common import ConfigError, DivergentIntegralError

_QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class AmplitudeSpec:
    """Sign-preserving power amplitude f(x) = coef * sign(x) * |x|**exponent.

    The closed-form moment engine understands this family; any other callable
    can be used as an amplitude but its moments fall back to quadrature.
    """

    coef: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("amplitude exponent must be nonnegative")

    def __call__(self, x):
        return self.coef * np.sign(x) * np.abs(x) ** self.exponent


IDENTITY = AmplitudeSpec(1.0, 1.0)

Amplitude = Union[AmplitudeSpec, Callable[[float], float]]


@dataclass(frozen=True)
class AtomSpec:
    """Finite measure: tuple of (position, mass) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for x, m in self.atoms:
            if m <= 0:
                raise ValueError(f"atom mass must be positive, got {m} at {x}")

    @property
    def mass(self) -> float:
        return sum(m for _, m in self.atoms)


@dataclass(frozen=True)
class PowerLawSpec:
    """Symmetric density c|x|^(-1-a) on 0 < |x| < 1; infinite total mass."""

    c: float
    a: float

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("power-law constant c must be positive")
        if not 0 < self.a < 2:
            raise ValueError("power-law exponent a must lie in (0, 2)")


SmallSpec = Union[AtomSpec, PowerLawSpec]


@dataclass(frozen=True)
class IntegrationRegion:
    """A region of the mark space for moment queries.

    kind 'small'    : 0 < |x| < 1
    kind 'tail'     : |x| >= 1
    kind 'disc'     : eps < |x| < 1
    kind 'eps_ball' : 0 < |x| <= eps
    """

    kind: str
    eps: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("small", "tail", "disc", "eps_ball"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        needs_eps = self.kind in ("disc", "eps_ball")
        if needs_eps:
            if self.eps is None or not 0 < self.eps < 1:
                raise ValueError("disc / eps_ball regions need eps in (0, 1)")
        elif self.eps is not None:
            raise ValueError(f"region {self.kind!r} takes no eps")

    @classmethod
    def small(cls) -> "IntegrationRegion":
        return cls("small")

    @classmethod
    def tail(cls) -> "IntegrationRegion":
        return cls("tail")

    @classmethod
    def disc(cls, eps: float) -> "IntegrationRegion":
        return cls("disc", eps)

    @classmethod
    def eps_ball(cls, eps: float) -> "IntegrationRegion":
        return cls("eps_ball", eps)

    def contains(self, x: float) -> bool:
        ax = abs(x)
        if self.kind == "small":
            return 0 < ax < 1
        if self.kind == "tail":
            return ax >= 1
        if self.kind == "disc":
            return self.eps < ax < 1
        return 0 < ax <= self.eps

    def radial_bounds(self) -> tuple[float, float]:
        """(lo, hi) of |x| for the small-side regions."""
        if self.kind == "small":
            return 0.0, 1.0
        if self.kind == "disc":
            return self.eps, 1.0
        if self.kind == "eps_ball":
            return 0.0, self.eps
        raise ValueError("tail region has no radial bounds inside the ball")


@dataclass(frozen=True)
class LevyModel:
    small: SmallSpec
    tail: AtomSpec
    p: Amplitude = IDENTITY
    q: Amplitude = IDENTITY

    def __post_init__(self) -> None:
        if isinstance(self.small, AtomSpec):
            for x, _ in self.small.atoms:
                if not 0 < abs(x) < 1:
                    raise ValueError(f"small atom {x} outside 0 < |x| < 1")
        for x, _ in self.tail.atoms:
            if abs(x) < 1:
                raise ValueError(f"tail atom {x} inside the unit ball")
        # The schemes need p square-integrable near 0 and q square-integrable
        # on the tail; atoms are always fine, the density needs 2e > a.
        sq = moment(self, "p", 2, IntegrationRegion.small())
        if not math.isfinite(sq):
            raise ValueError("p is not square-integrable over the small region")
        moment(self, "q", 2, IntegrationRegion.tail())

    @property
    def is_finite_activity(self) -> bool:
        return isinstance(self.small, AtomSpec)

    @property
    def small_mass(self) -> float:
        if isinstance(self.small, AtomSpec):
            return self.small.mass
        return math.inf

    @property
    def tail_mass(self) -> float:
        return self.tail.mass

    @property
    def active_rate(self) -> float:
        """Total arrival rate when simulated as-is (small + tail)."""
        return self.small_mass + self.tail_mass

    # -- sampling helpers used by the event simulator ---------------------

    def sample_small_mark(self, rng: np.random.Generator) -> float:
        if not isinstance(self.small, AtomSpec):
            raise ValueError(
                "small region has infinite mass; truncate() the model before sampling"
            )
        return _sample_atoms(self.small, rng)

    def sample_tail_mark(self, rng: np.random.Generator) -> float:
        if self.tail.mass == 0:
            raise ValueError("tail region carries no mass")
        return _sample_atoms(self.tail, rng)


@dataclass(frozen=True)
class TruncatedModel:
    """A model with the inner ball 0 < |x| <= eps removed from the small part.

    disc_mass      : nu(eps < |x| < 1), the surviving small-jump rate
    residual_l_eps : integral of p^2 over the removed inner ball (the size of
                     what was thrown away; drives the truncation error)
    """

    base: LevyModel
    eps: float
    disc_mass: float
    residual_l_eps: float

    @property
    def p(self) -> Amplitude:
        return self.base.p

    @property
    def q(self) -> Amplitude:
        return self.base.q

    @property
    def tail(self) -> AtomSpec:
        return self.base.tail

    @property
    def is_finite_activity(self) -> bool:
        return True

    @property
    def small_mass(self) -> float:
        return self.disc_mass

    @property
    def tail_mass(self) -> float:
        return self.base.tail.mass

    @property
    def active_rate(self) -> float:
        return self.disc_mass + self.tail_mass

    def sample_small_mark(self, rng: np.random.Generator) -> float:
        small = self.base.small
        if isinstance(small, AtomSpec):
            kept = AtomSpec(tuple((x, m) for x, m in small.atoms if abs(x) > self.eps))
            if not kept.atoms:
                raise ValueError("no small-region mass survives the truncation")
            return _sample_atoms(kept, rng)
        return _sample_power_law_disc(small, self.eps, rng)

    def sample_tail_mark(self, rng: np.random.Generator) -> float:
        return self.base.sample_tail_mark(rng)


ActiveModel = Union[LevyModel, TruncatedModel]


def _sample_atoms(spec: AtomSpec, rng: np.random.Generator) -> float:
    positions = np.array([x for x, _ in spec.atoms])
    masses = np.array([m for _, m in spec.atoms])
    i = rng.choice(len(positions), p=masses / masses.sum())
    return float(positions[i])


def _sample_power_law_disc(spec: PowerLawSpec, eps: float, rng: np.random.Generator) -> float:
    # |x| by inverse CDF on (eps, 1): F(x) = (eps^-a - x^-a) / (eps^-a - 1),
    # then an independent fair sign.  Magnitude is drawn first.
    a = spec.a
    u = rng.random()
    lo = eps ** (-a)
    mag = (lo - u * (lo - 1.0)) ** (-1.0 / a)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * mag


# -- moments ---------------------------------------------------------------


def _power_integral(lo: float, hi: float, m: float) -> float:
    """integral of x**m over (lo, hi), 0 <= lo < hi; inf when divergent at 0."""
    if lo == 0.0 and m <= -1.0:
        return math.inf
    if m == -1.0:
        return math.log(hi / lo)
    return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)


def moment(model: LevyModel | TruncatedModel, func: str, power: int,
           region: IntegrationRegion) -> float:
    """integral of amplitude**power over the region, against nu.

    func is 'p' (small-side amplitude) or 'q' (tail amplitude); power is 1 or
    2.  Closed form for AmplitudeSpec amplitudes; adaptive quadrature (rel.
    tol 1e-10, singularity split at 0) otherwise.  A power-1 integral that is
    not absolutely convergent raises DivergentIntegralError.
    """
    if isinstance(model, TruncatedModel):
        # a truncated model's small region is the disc; eps_ball queries are
        # still answered against the base (they describe the removed part)
        if region.kind == "small":
            region = IntegrationRegion.disc(model.eps)
        elif region.kind == "disc" and region.eps < model.eps:
            raise ValueError("query disc extends below the truncation level")
        return moment(model.base, func, power, region)

    if func not in ("p", "q"):
        raise ValueError(f"func must be 'p' or 'q', got {func!r}")
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")

    if func == "q":
        if region.kind != "tail":
            raise ValueError("q moments are only defined on the tail region")
        amp = model.q
        return float(sum(m * amp(x) ** power for x, m in model.tail.atoms))

    if region.kind == "tail":
        raise ValueError("p moments are only defined inside the unit ball")
    amp = model.p

    if isinstance(model.small, AtomSpec):
        return float(sum(m * amp(x) ** power
                         for x, m in model.small.atoms if region.contains(x)))

    lo, hi = region.radial_bounds()
    spec = model.small
    if isinstance(amp, AmplitudeSpec):
        e, coef = amp.exponent, amp.coef
        if power == 1:
            # odd integrand over a symmetric region: zero when absolutely
            # convergent, i.e. when |p| integrates (e - a > -1 + 1 <=> e > a
            # only matters at the origin)
            abs_val = 2.0 * abs(coef) * spec.c * _power_integral(lo, hi, e - 1.0 - spec.a)
            if not math.isfinite(abs_val):
                raise DivergentIntegralError(
                    f"power-1 moment of |x|^{e} against c|x|^(-1-{spec.a}) diverges at 0"
                )
            return 0.0
        return 2.0 * coef**2 * spec.c * _power_integral(lo, hi, 2.0 * e - 1.0 - spec.a)

    return _quad_moment(spec, amp, power, lo, hi)


def _quad_moment(spec: PowerLawSpec, amp, power: int, lo: float, hi: float) -> float:
    """Quadrature fallback for non-power amplitudes against the density."""
    def dens(x):
        return spec.c * abs(x) ** (-1.0 - spec.a)

    def f_pos(x):
        return amp(x) ** power * dens(x)

    def f_neg(x):
        return amp(-x) ** power * dens(x)

    if power == 1:
        # absolute convergence check first
        total_abs = 0.0
        for f in (f_pos, f_neg):
            val, _ = integrate.quad(lambda x: abs(f(x)), lo, hi,
                                    epsrel=_QUAD_RTOL, limit=200)
            total_abs += val
        if not math.isfinite(total_abs) or total_abs > 1e12:
            raise DivergentIntegralError("power-1 moment diverges near 0")
    pos, _ = integrate.quad(f_pos, lo, hi, epsrel=_QUAD_RTOL, limit=200)
    neg, _ = integrate.quad(f_neg, lo, hi, epsrel=_QUAD_RTOL, limit=200)
    return pos + neg if power == 2 else pos - neg


def disc_mass(model: LevyModel, eps: float) -> float:
    """nu(eps < |x| < 1)."""
    if isinstance(model.small, AtomSpec):
        return sum(m for x, m in model.small.atoms if eps < abs(x) < 1)
    spec = model.small
    return 2.0 * spec.c * _power_integral(eps, 1.0, -1.0 - spec.a)


def truncate(model: LevyModel, eps: float) -> TruncatedModel:
    """Drop the inner ball 0 < |x| <= eps from the small region."""
    if not 0 < eps < 1:
        raise ValueError(f"truncation level must lie in (0, 1), got {eps}")
    residual = moment(model, "p", 2, IntegrationRegion.eps_ball(eps))
    return TruncatedModel(base=model, eps=eps,
                          disc_mass=disc_mass(model, eps),
                          residual_l_eps=residual)


# -- config loading ---------------------------------------------------------


def _amplitude_from_config(obj) -> AmplitudeSpec:
    if obj is None or obj == {} or obj == "identity":
        return IDENTITY
    if isinstance(obj, dict):
        extra = set(obj) - {"coef", "exponent", "kind"}
        if extra:
            raise ConfigError(f"unknown amplitude keys: {sorted(extra)}")
        if obj.get("kind") not in (None, "identity", "power"):
            raise ConfigError(f"unknown amplitude kind {obj.get('kind')!r}")
        if obj.get("kind") == "identity":
            return IDENTITY
        return AmplitudeSpec(float(obj.get("coef", 1.0)), float(obj.get("exponent", 1.0)))
    raise ConfigError(f"cannot interpret amplitude spec {obj!r}")


def _atoms_from_config(pairs) -> AtomSpec:
    try:
        return AtomSpec(tuple((float(x), float(m)) for x, m in pairs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad atom list {pairs!r}: {exc}") from None


def model_from_config(obj: dict) -> tuple[LevyModel, float | None]:
    """Build (model, optional truncation eps) from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError("model config must be an object")
    extra = set(obj) - {"small", "tail", "p", "q", "epsilon"}
    if extra:
        raise ConfigError(f"unknown model keys: {sorted(extra)}")
    small_obj = obj.get("small")
    if not isinstance(small_obj, dict) or "kind" not in small_obj:
        raise ConfigError("model.small must be an object with a 'kind'")
    kind = small_obj["kind"]
    if kind == "atoms":
        small: SmallSpec = _atoms_from_config(small_obj.get("atoms", ()))
    elif kind == "power_law":
        try:
            small = PowerLawSpec(float(small_obj["c"]), float(small_obj["a"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad power_law spec: {exc}") from None
    else:
        raise ConfigError(f"unknown small-region kind {kind!r}")
    tail_obj = obj.get("tail", {"atoms": []})
    tail = _atoms_from_config(tail_obj.get("atoms", ()))
    try:
        model = LevyModel(small=small, tail=tail,
                          p=_amplitude_from_config(obj.get("p")),
                          q=_amplitude_from_config(obj.get("q")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    eps = obj.get("epsilon")
    if eps is not None:
        eps = float(eps)
        if not 0 < eps < 1:
            raise ConfigError(f"epsilon must lie in (0, 1), got {eps}")
    return model, eps


def activate(model: LevyModel, eps: float | None) -> ActiveModel:
    """The simulatable form: the model itself if finite-activity, else its
    truncation at eps (required in that case)."""
    if model.is_finite_activity:
        return model if eps is None else truncate(model, eps)
    if eps is None:
        raise ConfigError(
            "model has an infinite-activity small region; a truncation epsilon is required"
        )
    return truncate(model, eps)
