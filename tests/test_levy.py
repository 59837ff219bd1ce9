import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from levystep import (AmplitudeSpec, AtomSpec, ConfigError,
                      DivergentIntegralError, LevyModel, PowerLawSpec,
                      model_from_config, moment, truncate)

from helpers import quad_power_law_moment


def power_model(c=1.0, a=0.5, p=AmplitudeSpec(), tail=()):
    return LevyModel(small=PowerLawSpec(c, a), tail=AtomSpec(tuple(tail)), p=p)


# -- construction and validation ---------------------------------------------

def test_atom_positions_validated():
    with pytest.raises(ValueError):
        LevyModel(small=AtomSpec(((1.2, 1.0),)), tail=AtomSpec(()))
    with pytest.raises(ValueError):
        LevyModel(small=AtomSpec(()), tail=AtomSpec(((0.5, 1.0),)))
    with pytest.raises(ValueError):
        AtomSpec(((0.5, -1.0),))


@pytest.mark.parametrize("build,match", [
    (lambda: AmplitudeSpec(math.nan), "amplitude coef and exponent must be finite"),
    (lambda: AmplitudeSpec(1.0, math.inf), "amplitude coef and exponent must be finite"),
    (lambda: AtomSpec(((math.inf, 1.0),)), "atom position and mass must be finite"),
    (lambda: AtomSpec(((0.5, math.nan),)), "atom position and mass must be finite"),
    (lambda: LevyModel(small=AtomSpec(()), tail=AtomSpec(()), eps=1.0), "truncation radius"),
    (lambda: LevyModel(small=AtomSpec(()), tail=AtomSpec(()), eps=-0.1), "truncation radius"),
], ids=["amp-coef", "amp-exponent", "atom-position", "atom-mass", "eps-1", "eps-negative"])
def test_constructors_reject_values_outside_their_domain(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_power_law_parameter_range():
    for bad_a in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            PowerLawSpec(1.0, bad_a)
    with pytest.raises(ValueError):
        PowerLawSpec(0.0, 0.5)


def test_non_square_integrable_p_rejected():
    # p(x) = sign(x)|x|^0.25 against a = 1.2: 2e = 0.5 < a, not integrable
    with pytest.raises(ValueError):
        power_model(a=1.2, p=AmplitudeSpec(1.0, 0.25))
    # squares beyond the float range, on a power law and on atoms
    with pytest.raises(ValueError, match="model.p"):
        power_model(p=AmplitudeSpec(1e200))
    with pytest.raises(ValueError, match="model.p"):
        LevyModel(small=AtomSpec(((0.5, 1.0),)), tail=AtomSpec(()), p=AmplitudeSpec(1e200))


def test_rate_at_a_tiny_radius_is_infinite():
    # the rate beyond 1e-300 of a = 1.9 is ~1e570: inf, not an OverflowError
    model = power_model(a=1.9)
    assert truncate(model, 1e-300).active_rate == math.inf
    assert math.isfinite(truncate(model, 1e-3).active_rate)


def test_activity_flags(finite_model):
    assert finite_model.is_finite_activity
    assert finite_model.active_rate == pytest.approx(1.5)
    assert not power_model().is_finite_activity
    assert math.isinf(power_model().active_rate)


# -- moments: frozen closed-form values ----------------------------------------

def test_atom_moments(finite_model):
    assert moment(finite_model, 1) == pytest.approx(0.6 * 0.5 - 0.4 * 0.4)
    assert moment(finite_model, 2) == pytest.approx(0.6 * 0.25 + 0.4 * 0.16)


def test_atom_moment_single_atom_frozen():
    m = LevyModel(small=AtomSpec(((0.5, 2.0),)), tail=AtomSpec(()))
    assert moment(m, 2) == pytest.approx(0.5)


def test_power_law_second_moment_frozen():
    # integral of x^2 c|x|^{-1-a} over |x| <= eps is 2c eps^{2-a}/(2-a);
    # c=1, a=1/2, eps=1/4 gives (4/3)(1/4)^{3/2} = 1/6
    m = power_model()
    got = moment(m, 2, hi=0.25)
    assert got == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert moment(m, 2) == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("a,exponent", [(0.5, 1.0), (1.2, 1.0), (0.8, 1.5), (1.9, 1.0)])
@pytest.mark.parametrize("region", ["small", "disc", "eps_ball"])
def test_power_law_second_moment_vs_quadrature(a, exponent, region):
    amp = AmplitudeSpec(1.3, exponent)
    m = power_model(c=0.7, a=a, p=amp)
    lo, hi = {"small": (0.0, 1.0), "disc": (0.2, 1.0), "eps_ball": (0.0, 0.2)}[region]
    want = quad_power_law_moment(0.7, a, amp, 2, lo, hi)
    got = moment(m, 2, lo, hi)
    assert got == pytest.approx(want, rel=1e-8)


def test_power_law_first_moment_odd_symmetry():
    # odd amplitude, symmetric density: zero whenever absolutely convergent
    m = power_model(a=0.5)
    assert moment(m, 1) == 0.0
    assert moment(m, 1, lo=0.1) == 0.0


@pytest.mark.parametrize("a", [1.0, 1.5])
def test_power_law_first_moment_divergent(a):
    m = power_model(a=a)
    with pytest.raises(DivergentIntegralError):
        moment(m, 1)
    with pytest.raises(DivergentIntegralError):
        moment(m, 1, hi=0.3)
    # the disc stays away from the singularity, so this one converges
    assert moment(m, 1, lo=0.3) == 0.0


def test_moment_region_function_compatibility(finite_model):
    for power, lo, hi in [
        (1, 0.0, 1.5),    # reaches into the tail
        (2, 1.0, 1.0),    # empty band at the unit circle
        (2, 0.6, 0.4),    # inverted band
        (2, -0.1, 0.5),   # negative radius
        (3, 0.0, 1.0),    # power other than 1 or 2
        (0, 0.0, 1.0),
    ]:
        with pytest.raises(ValueError):
            moment(finite_model, power, lo, hi)


def test_generic_amplitude_rejected():
    with pytest.raises(TypeError):
        LevyModel(small=PowerLawSpec(1.0, 0.5), tail=AtomSpec(()),
                  p=lambda x: math.sin(x) * abs(x) ** 0.5)
    with pytest.raises(TypeError):
        LevyModel(small=AtomSpec(((0.5, 1.0),)), tail=AtomSpec(()), q=abs)


def test_region_additivity_property():
    # disc + eps_ball = small for the second moment, closed forms exact
    m = power_model(a=0.7, p=AmplitudeSpec(0.9, 1.0))
    for eps in (0.1, 0.25, 0.5, 0.9):
        total = moment(m, 2)
        parts = moment(m, 2, lo=eps) + moment(m, 2, hi=eps)
        assert parts == pytest.approx(total, rel=1e-12)


# -- truncation ----------------------------------------------------------------

def test_truncate_frozen_example():
    t = truncate(power_model(), 0.25)
    assert t.residual_l_eps == pytest.approx(1.0 / 6.0, rel=1e-12)
    # disc mass: 2c(eps^-a - 1)/a with c=1, a=1/2, eps=1/4 -> 4(2 - 1) = 4
    assert t.small_mass == pytest.approx(4.0, rel=1e-12)
    assert t.active_rate == pytest.approx(4.0)


def test_truncate_validates_eps(finite_model):
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            truncate(finite_model, bad)
    # a truncated model cannot be truncated again
    with pytest.raises(ValueError, match="already truncated"):
        truncate(truncate(finite_model, 0.1), 0.2)


def test_truncate_finite_model_no_inner_atoms(finite_model):
    t = truncate(finite_model, 0.1)
    assert t.residual_l_eps == 0.0
    assert t.small_mass == pytest.approx(1.0)


def test_truncate_finite_model_splits_atoms(finite_model):
    t = truncate(finite_model, 0.45)
    # atom at -0.4 falls into the removed ball
    assert t.small_mass == pytest.approx(0.6)
    assert t.residual_l_eps == pytest.approx(0.4 * 0.16)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_residual_monotone_in_eps(e1, e2):
    m = power_model(a=0.8)
    lo, hi = sorted((e1, e2))
    r_lo = truncate(m, lo).residual_l_eps
    r_hi = truncate(m, hi).residual_l_eps
    assert r_lo <= r_hi + 1e-15


@pytest.mark.parametrize("a", [0.5, 1.2])
def test_residual_scaling_slope(a):
    m = power_model(a=a)
    eps = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    res = np.array([truncate(m, float(e)).residual_l_eps for e in eps])
    slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert slope == pytest.approx(2.0 - a, abs=0.02)


def test_truncated_moments_clip_to_disc():
    m = power_model(a=0.5)
    t = truncate(m, 0.25)
    assert moment(t, 2) == pytest.approx(moment(m, 2, lo=0.25), rel=1e-12)
    # a band reaching below the radius is clipped to it
    assert moment(t, 2, lo=0.1) == moment(t, 2)
    assert moment(t, 2, hi=0.5) == moment(m, 2, 0.25, 0.5)
    assert moment(t, 2, hi=0.2) == 0.0


# -- sampling -------------------------------------------------------------------

def test_sample_mark_atoms_frequencies(finite_model, rng):
    n = 20000
    draws = np.array([finite_model.sample_small_mark(rng.random) for _ in range(n)])
    assert set(np.unique(draws)) == {0.5, -0.4}
    frac = np.mean(draws == 0.5)
    assert abs(frac - 0.6) < 3 * math.sqrt(0.6 * 0.4 / n)


@pytest.mark.parametrize("atoms", [
    ((0.5, 0.6), (-0.4, 0.4)),
    ((1.5, 0.3), (-2.0, 0.2)),
    ((0.1, 0.3), (0.2, 0.25), (0.7, 0.05), (-0.3, 1.7)),
])
def test_atom_sampler_matches_generator_choice(atoms):
    # the cached cumulative-mass draw picks the atom Generator.choice picks
    # and leaves the generator in the same state, so every stream is unchanged
    spec = AtomSpec(atoms)
    positions = [x for x, _ in atoms]
    masses = np.array([m for _, m in atoms])
    for seed in range(500):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        picked = ref.choice(len(atoms), p=masses / masses.sum())
        assert spec.sample(ours.random) == positions[picked]
        assert ours.random() == ref.random()


def test_atom_sampler_breaks_a_tie_with_the_cdf_as_generator_choice():
    # a uniform exactly on a cumulative mass picks the next atom, as the
    # searchsorted(..., side="right") of Generator.choice does
    assert np.searchsorted([0.25, 1.0], 0.25, side="right") == 1
    assert AtomSpec(((0.5, 0.25), (-0.4, 0.75))).sample(lambda: 0.25) == -0.4


def test_sample_mark_untruncated_power_law_rejected(rng):
    with pytest.raises(ValueError):
        power_model().sample_small_mark(rng.random)


def test_sample_mark_zero_mass_tail(rng):
    m = LevyModel(small=AtomSpec(((0.5, 1.0),)), tail=AtomSpec(()))
    with pytest.raises(ValueError):
        m.sample_tail_mark(rng.random)


def test_truncated_atom_sampling_zero_survivors(rng):
    m = LevyModel(small=AtomSpec(((0.1, 1.0),)), tail=AtomSpec(()))
    t = truncate(m, 0.5)
    with pytest.raises(ValueError):
        t.sample_small_mark(rng.random)


@pytest.mark.parametrize("a", [0.5, 1.2])
def test_power_law_disc_sampling_ks(a, rng):
    eps = 0.2
    t = truncate(power_model(a=a), eps)
    n = 100000
    draws = np.array([t.sample_small_mark(rng.random) for _ in range(n)])
    assert np.all(np.abs(draws) > eps) and np.all(np.abs(draws) < 1)
    # |x| has cdf (eps^-a - x^-a)/(eps^-a - 1) on (eps, 1)
    lo = eps ** (-a)

    def cdf(x):
        return (lo - np.asarray(x) ** (-a)) / (lo - 1.0)

    stat = stats.kstest(np.abs(draws), cdf).statistic
    assert stat < 0.01
    # fair signs
    frac_pos = np.mean(draws > 0)
    assert abs(frac_pos - 0.5) < 3 * math.sqrt(0.25 / n)


def test_sampling_determinism(finite_model):
    a = [finite_model.sample_small_mark(np.random.default_rng(9).random) for _ in range(5)]
    b = [finite_model.sample_small_mark(np.random.default_rng(9).random) for _ in range(5)]
    assert a == b


# -- config loading --------------------------------------------------------------

def test_model_from_config_atoms():
    model, eps = model_from_config({
        "small": {"kind": "atoms", "atoms": [[0.5, 0.6], [-0.4, 0.4]]},
        "tail": {"atoms": [[1.5, 0.3]]},
    })
    assert model.is_finite_activity
    assert eps is None
    assert model.small_mass == pytest.approx(1.0)


def test_model_from_config_power_law_with_eps():
    model, eps = model_from_config({
        "small": {"kind": "power_law", "c": 1.0, "a": 0.5},
        "tail": {"atoms": []},
        "p": {"coef": 2.0, "exponent": 1.0},
        "epsilon": 0.25,
    })
    assert not model.is_finite_activity
    assert eps == 0.25
    assert model.p(0.5) == pytest.approx(1.0)


ATOMS = {"kind": "atoms", "atoms": [[0.5, 1.0]]}


@pytest.mark.parametrize("amp", [None, {}, {"coef": 1, "exponent": 1.0}])
def test_model_from_config_identity_amplitude(amp):
    model, _ = model_from_config({"small": ATOMS, "p": amp, "q": amp})
    assert model.p == model.q == AmplitudeSpec(1.0, 1.0)
POWER_LAW = {"kind": "power_law", "c": 1.0, "a": 0.5}
NAN, INF = float("nan"), float("inf")
BAD_MODELS = [
    ({"small": {"kind": "mystery"}, "tail": {"atoms": []}}, "small-region kind"),
    ({"small": {"kind": "atoms", "atoms": [[1.5, 1.0]]}, "tail": {"atoms": []}}, "small atom"),
    ({"small": {"kind": "power_law", "c": 1.0, "a": 3.0}, "tail": {"atoms": []}}, "model.small"),
    ({"small": {"kind": "atoms", "atoms": []}, "tail": {"atoms": []}, "epsilon": 1.5},
     "model.epsilon"),
    ({"small": {"kind": "atoms", "atoms": []}, "surprise": 1}, "surprise"),
    ({"tail": {"atoms": []}}, "model.small"),
    # nonfinite values
    ({"small": ATOMS, "q": {"coef": INF}}, "model.q"),
    ({"small": ATOMS, "tail": {"atoms": [[1.5, NAN]]}}, "model.tail"),
    ({"small": POWER_LAW, "p": {"coef": NAN}}, "model.p"),
    ({"small": POWER_LAW, "p": {"exponent": NAN}}, "model.p"),
    ({"small": dict(POWER_LAW, c=NAN)}, "model.small"),
    ({"small": {"kind": "atoms", "atoms": [[0.5, INF]]}}, "model.small"),
    # a mass that is finite but not positive
    ({"small": {"kind": "atoms", "atoms": [[0.5, 0.0]]}}, "model.small.atoms"),
    ({"small": ATOMS, "tail": {"atoms": [[1.5, -0.3]]}}, "model.tail.atoms"),
    # malformed sections and unknown nested keys
    ({"small": ATOMS, "tail": [1]}, "model.tail"),
    ({"small": dict(POWER_LAW, c=[1])}, "model.small.c"),
    ({"small": ATOMS, "epsilon": "x"}, "model.epsilon"),
    ({"small": dict(ATOMS, c=1.0)}, "model.small"),
    ({"small": dict(POWER_LAW, atoms=[])}, "model.small"),
    ({"small": ATOMS, "tail": {"atoms": [], "mass": 1.0}}, "model.tail"),
    ({"small": ATOMS, "tail": {"kind": "power_law", "atoms": []}}, "model.tail"),
    # amplitudes are {"coef", "exponent"} objects only
    ({"small": ATOMS, "p": "identity"}, "model.p"),
    ({"small": ATOMS, "q": {"kind": "identity"}}, "model.q"),
    ({"small": ATOMS, "p": {"kind": "power", "coef": 2.0}}, "model.p"),
    ({"small": ATOMS, "q": {"exponent": -1.0}}, "model.q"),
    # an atom's p squared leaves the float range (a numpy square, not a Python one)
    ({"small": ATOMS, "p": {"coef": 1e200, "exponent": 2}}, "model.p"),
    # q at a tail atom leaves the float range
    ({"small": ATOMS, "tail": {"atoms": [[1.5, 0.3]]}, "q": {"coef": 1, "exponent": 2000}},
     "model.q"),
]


@pytest.mark.parametrize("bad,key", BAD_MODELS,
                         ids=[f"bad{i}" for i in range(len(BAD_MODELS))])
def test_model_from_config_rejects(bad, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        model_from_config(bad)
