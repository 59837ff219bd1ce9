"""Jump-measure models on the real line.

A model is the Levy measure nu split at the unit circle: a *small* part on
0 < |x| < 1 (finitely many weighted atoms, or a symmetric power-law density
c|x|^(-1-a), 0 < a < 2, which has infinite total mass) plus a finite *tail*
part on |x| >= 1 given by atoms.  Two scalar mark amplitudes p (small region)
and q (tail) from the power family ride along with the model because every
moment the schemes need is an integral of p against nu, which the power
family gives in closed form.

Truncation removes the inner ball 0 < |x| <= eps from the small region.  A
truncated model is the same model with its radius eps set: what remains (the
disc eps < |x| < 1 plus the tail) has finite mass and can be simulated as a
compound Poisson stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .common import ConfigError, DivergentIntegralError, finite, require, section


@dataclass(frozen=True)
class AmplitudeSpec:
    """Sign-preserving power amplitude f(x) = coef * sign(x) * |x|**exponent.

    The only amplitude family: the moment engine integrates it in closed form.
    """

    coef: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coef) and math.isfinite(self.exponent)):
            raise ValueError(f"amplitude coef and exponent must be finite, "
                             f"got {self.coef} and {self.exponent}")
        if self.exponent < 0:
            raise ValueError("amplitude exponent must be nonnegative")

    def __call__(self, x):
        if self.exponent == 1.0:  # linear: the same values, fewer array passes
            return self.coef * x
        return self.coef * np.sign(x) * np.abs(x) ** self.exponent


IDENTITY = AmplitudeSpec(1.0, 1.0)


@dataclass(frozen=True)
class AtomSpec:
    """Finite measure: tuple of (position, mass) pairs."""

    atoms: tuple[tuple[float, float], ...]
    mark_uniforms = 1  # the uniforms one mark takes (a class constant, not a field)

    def __post_init__(self) -> None:
        for x, m in self.atoms:
            if not (math.isfinite(x) and math.isfinite(m)):
                raise ValueError(f"atom position and mass must be finite, got {m} at {x}")
            if m <= 0:
                raise ValueError(f"atom mass must be positive, got {m} at {x}")

    @cached_property
    def mass(self) -> float:
        return sum(m for _, m in self.atoms)

    @cached_property
    def _positions_cdf(self) -> tuple[list[float], list[float]]:
        # the normalized cumulative masses exactly as Generator.choice forms
        # them, as lists: a scalar draw bisects them faster than an array
        positions = [float(x) for x, _ in self.atoms]
        masses = np.array([m for _, m in self.atoms])
        cdf = np.cumsum(masses / masses.sum())
        cdf /= cdf[-1]
        return positions, cdf.tolist()

    def sample(self, draw: Callable[[], float]) -> float:
        """One position drawn with probability proportional to its mass.

        Takes one uniform from `draw` (a generator's `random`, or the next of
        uniforms it drew) and returns what `rng.choice(positions, p=masses /
        masses.sum())` would on that uniform (`bisect_right` makes the
        comparisons of `searchsorted(..., side="right")`).
        """
        positions, cdf = self._positions_cdf
        return positions[bisect_right(cdf, draw())]


@dataclass(frozen=True)
class PowerLawSpec:
    """Symmetric density c|x|^(-1-a) on 0 < |x| < 1; infinite total mass."""

    c: float
    a: float
    mark_uniforms = 2  # magnitude, then sign (a class constant, not a field)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("power-law constant c must be positive and finite")
        if not 0 < self.a < 2:
            raise ValueError("power-law exponent a must lie in (0, 2)")


SmallSpec = Union[AtomSpec, PowerLawSpec]


@dataclass(frozen=True)
class LevyModel:
    """The measure, its amplitudes and its truncation radius eps.

    eps = 0 is the model as given; eps in (0, 1) removes the inner ball
    0 < |x| <= eps from the small region (see `truncate`).
    """

    small: SmallSpec
    tail: AtomSpec
    p: AmplitudeSpec = IDENTITY
    q: AmplitudeSpec = IDENTITY
    eps: float = 0.0

    def __post_init__(self) -> None:
        for amp in (self.p, self.q):
            if not isinstance(amp, AmplitudeSpec):
                raise TypeError(f"amplitudes must be AmplitudeSpec, got {type(amp).__name__}")
        if not 0 <= self.eps < 1:
            raise ValueError(f"truncation radius must lie in [0, 1), got {self.eps}")
        if isinstance(self.small, AtomSpec):
            for x, _ in self.small.atoms:
                if not 0 < abs(x) < 1:
                    raise ValueError(f"small atom {x} outside 0 < |x| < 1")
        for x, _ in self.tail.atoms:
            if abs(x) < 1:
                raise ValueError(f"tail atom {x} inside the unit ball")
        # The schemes need p square-integrable near 0 (atoms are always fine,
        # the density needs 2e > a) and its squares within the float range.
        try:
            p_sq = _band_moment(self, 2, 0.0, 1.0)
        except OverflowError:  # a Python-float square beyond the float range
            p_sq = math.inf
        if not math.isfinite(p_sq):
            raise ValueError("model.p is not square-integrable over the small region, "
                             "or its square overflows")
        # and q finite at every tail atom, where a tail jump scales the scheme
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
            bad = [x for x, _ in self.tail.atoms if not np.isfinite(self.q(x))]
        if bad:
            raise ValueError(f"model.q is not finite at tail atom {bad[0]}")

    @property
    def is_finite_activity(self) -> bool:
        return isinstance(self.small, AtomSpec) or self.eps > 0

    @cached_property
    def small_mass(self) -> float:
        """nu(eps < |x| < 1): the small-jump rate, infinite for an untruncated
        power law."""
        if isinstance(self.small, AtomSpec):
            return sum(m for x, m in self.small.atoms if abs(x) > self.eps)
        return 2.0 * self.small.c * _power_integral(self.eps, 1.0, -1.0 - self.small.a)

    @property
    def active_rate(self) -> float:
        """Total arrival rate when simulated as-is (small + tail)."""
        return self.small_mass + self.tail.mass

    @property
    def residual_l_eps(self) -> float:
        """Integral of p^2 over the removed inner ball 0 < |x| <= eps: the size
        of what truncation throws away, which drives the truncation error."""
        return _band_moment(self, 2, 0.0, self.eps)

    # -- sampling helpers used by the event simulator ---------------------

    @cached_property
    def _small_sampler(self) -> Callable[[Callable[[], float]], float]:
        """The small-region mark sampler, checked and set up once a model: the
        atoms outside the removed ball, or the power-law disc eps < |x| < 1."""
        if isinstance(self.small, AtomSpec):
            kept = AtomSpec(tuple((x, m) for x, m in self.small.atoms if abs(x) > self.eps))
            if not kept.atoms:
                raise ValueError("no small-region mass survives the truncation")
            return kept.sample
        if self.eps == 0:
            raise ValueError(
                "small region has infinite mass; truncate() the model before sampling"
            )
        # |x| by inverse CDF on (eps, 1): F(x) = (eps^-a - x^-a) / (eps^-a - 1),
        # then an independent fair sign.  Magnitude is drawn first.
        lo = self.eps ** (-self.small.a)
        span, power = lo - 1.0, -1.0 / self.small.a

        def disc(draw: Callable[[], float]) -> float:
            mag = (lo - draw() * span) ** power
            return mag if draw() < 0.5 else -mag
        return disc

    def sample_small_mark(self, draw: Callable[[], float]) -> float:
        """One small-region mark from `draw`'s uniforms: one for an atom, two
        (magnitude, then sign) for the power-law disc."""
        return self._small_sampler(draw)

    def sample_tail_mark(self, draw: Callable[[], float]) -> float:
        """One tail atom from one of `draw`'s uniforms."""
        if self.tail.mass == 0:
            raise ValueError("tail region carries no mass")
        return self.tail.sample(draw)


# -- moments ---------------------------------------------------------------


def _power_integral(lo: float, hi: float, m: float) -> float:
    """integral of x**m over (lo, hi), 0 <= lo < hi; inf when divergent at 0."""
    if lo == 0.0 and m <= -1.0:
        return math.inf
    if m == -1.0:
        return math.log(hi / lo)
    try:
        return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    except OverflowError:  # lo ** (m + 1) beyond the float range, m + 1 < 0
        return math.inf


def moment(model: LevyModel, power: int, lo: float = 0.0, hi: float = 1.0) -> float:
    """integral of p**power over the band lo < |x| <= hi, against nu.

    power is 1 or 2 and 0 <= lo < hi <= 1; a band reaching below the model's
    truncation radius is clipped to it.  A power-1 integral that is not
    absolutely convergent raises DivergentIntegralError.
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    return _band_moment(model, power, max(lo, model.eps), hi)


def _band_moment(model: LevyModel, power: int, lo: float, hi: float) -> float:
    """`moment` over lo < |x| <= hi without the checks or the clip; an empty
    band gives 0."""
    if lo >= hi:
        return 0.0
    amp = model.p
    if isinstance(model.small, AtomSpec):
        with np.errstate(over="ignore"):  # a numpy square beyond the float range is inf
            return float(sum(m * amp(x) ** power
                             for x, m in model.small.atoms if lo < abs(x) <= hi))

    spec = model.small
    e, coef = amp.exponent, amp.coef
    if power == 1:
        # odd integrand over a symmetric band: zero when absolutely
        # convergent, which only fails at the origin (when e <= a)
        abs_val = 2.0 * abs(coef) * spec.c * _power_integral(lo, hi, e - 1.0 - spec.a)
        if not math.isfinite(abs_val):
            raise DivergentIntegralError(
                f"power-1 moment of |x|^{e} against c|x|^(-1-{spec.a}) diverges at 0"
            )
        return 0.0
    return 2.0 * coef**2 * spec.c * _power_integral(lo, hi, 2.0 * e - 1.0 - spec.a)


def truncate(model: LevyModel, eps: float) -> LevyModel:
    """Drop the inner ball 0 < |x| <= eps from the small region."""
    if model.eps > 0:
        raise ValueError(f"model is already truncated at {model.eps}")
    if not 0 < eps < 1:
        raise ValueError(f"truncation level must lie in (0, 1), got {eps}")
    return replace(model, eps=eps)


# -- config loading ---------------------------------------------------------


def _amplitude_from_config(key: str, obj) -> AmplitudeSpec:
    """{"coef", "exponent"}, each defaulting to 1; absent or null is identity."""
    obj = section(key, {} if obj is None else obj, {"coef", "exponent"})
    try:
        return AmplitudeSpec(**{name: finite(f"{key}.{name}", value)
                                for name, value in obj.items()})
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _atoms_from_config(key: str, pairs) -> AtomSpec:
    key = f"{key}.atoms"
    require(isinstance(pairs, (list, tuple))
            and all(isinstance(a, (list, tuple)) and len(a) == 2 for a in pairs),
            f"{key} must be a list of [position, mass] pairs, got {pairs!r}")
    try:
        return AtomSpec(tuple((finite(key, x), finite(key, m)) for x, m in pairs))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def model_from_config(obj: dict) -> tuple[LevyModel, float | None]:
    """Build (model, optional truncation eps) from a parsed JSON object."""
    section("model", obj, {"small", "tail", "p", "q", "epsilon"})
    small_obj = obj.get("small")
    if not isinstance(small_obj, dict) or "kind" not in small_obj:
        raise ConfigError("model.small must be an object with a 'kind'")
    kind = small_obj["kind"]
    if kind == "atoms":
        section("model.small", small_obj, {"kind", "atoms"})
        small: SmallSpec = _atoms_from_config("model.small", small_obj.get("atoms", ()))
    elif kind == "power_law":
        section("model.small", small_obj, {"kind", "c", "a"})
        try:
            small = PowerLawSpec(finite("model.small.c", small_obj.get("c")),
                                 finite("model.small.a", small_obj.get("a")))
        except ValueError as exc:
            raise ConfigError(f"model.small: {exc}") from None
    else:
        raise ConfigError(f"unknown small-region kind {kind!r}")
    tail_obj = section("model.tail", obj.get("tail", {"atoms": []}), {"kind", "atoms"})
    if tail_obj.get("kind", "atoms") != "atoms":
        raise ConfigError(f"model.tail kind must be 'atoms', got {tail_obj['kind']!r}")
    tail = _atoms_from_config("model.tail", tail_obj.get("atoms", ()))
    p = _amplitude_from_config("model.p", obj.get("p"))
    q = _amplitude_from_config("model.q", obj.get("q"))
    try:
        model = LevyModel(small=small, tail=tail, p=p, q=q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    eps = obj.get("epsilon")
    if eps is not None:
        eps = finite("model.epsilon", eps)
        if not 0 < eps < 1:
            raise ConfigError(f"model.epsilon must lie in (0, 1), got {eps}")
    return model, eps


def activate(model: LevyModel, eps: float | None) -> LevyModel:
    """The simulatable form: the model itself if finite-activity, else its
    truncation at eps (required in that case)."""
    if model.is_finite_activity:
        return model if eps is None else truncate(model, eps)
    if eps is None:
        raise ConfigError("model has an infinite-activity small region; "
                          "config key 'model.epsilon' (a truncation radius) is required")
    return truncate(model, eps)
