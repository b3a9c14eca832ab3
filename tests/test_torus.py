import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geoham.torus import (
    FrequencySpec,
    INTEGRABLE,
    MAXIMALLY_SUPERINTEGRABLE,
    SUPERINTEGRABLE,
    classify,
    integer_kernel,
    orbit_closure_dimension,
    resonance_lattice,
    row_hermite_normal_form,
)


def brute_force_relations(values, bound=5):
    """All integer vectors with max-norm <= bound annihilating rational values."""
    n = len(values)
    values = [Fraction(v) for v in values]
    hits = []
    for combo in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(combo) and sum(k * v for k, v in zip(combo, values)) == 0:
            hits.append(combo)
    return hits


def test_hnf_canonical_form():
    h = row_hermite_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    # echelon, positive pivots, entries above pivots reduced
    pivots = []
    for row in h:
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is not None:
            assert row[nz] > 0
            pivots.append(nz)
    assert pivots == sorted(pivots)


def test_integer_kernel_small():
    basis = integer_kernel([[2, 4, 3]], ncols=3)
    assert len(basis) == 2
    for row in basis:
        assert 2 * row[0] + 4 * row[1] + 3 * row[2] == 0


def test_irrational_pair_has_trivial_lattice():
    spec = FrequencySpec(["1", "sqrt2"], [[1, 0], [0, 1]])
    lattice = resonance_lattice(spec)
    assert lattice.rank == 0
    assert orbit_closure_dimension(spec) == 2


def test_equal_frequencies_lattice():
    spec = FrequencySpec.from_rationals([1, 1])
    lattice = resonance_lattice(spec)
    assert lattice.rank == 1
    assert lattice.basis == ((1, -1),)
    assert orbit_closure_dimension(spec) == 1


def test_integer_triple_against_brute_force():
    spec = FrequencySpec.from_rationals([2, 4, 3])
    lattice = resonance_lattice(spec)
    assert lattice.rank == 2
    enumerated = brute_force_relations([2, 4, 3])
    assert enumerated
    for k in enumerated:
        assert lattice.contains(k)
    for row in lattice.basis:
        assert 2 * row[0] + 4 * row[1] + 3 * row[2] == 0
    assert orbit_closure_dimension(spec) == 1


def test_lattice_membership_is_exact_on_box():
    # equality with brute force restricted to the box: k resonant <=> k in lattice
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 4)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        if any(v == 0 for v in values):
            continue
        spec = FrequencySpec.from_rationals(values)
        lattice = resonance_lattice(spec)
        for combo in itertools.product(range(-3, 4), repeat=n):
            resonant = sum(k * v for k, v in zip(combo, values)) == 0
            assert lattice.contains(combo) == resonant


def test_classification_fixtures():
    for n in (1, 2, 3, 5):
        spec = FrequencySpec.from_rationals([1] * n)
        result = classify(spec)
        assert result.kind == MAXIMALLY_SUPERINTEGRABLE
        assert result.closure_dimension == 1
        assert result.extra_integrals == n - 1

    irrational = FrequencySpec(["1", "sqrt2"], [[1, 0], [0, 1]])
    result = classify(irrational)
    assert result.kind == INTEGRABLE
    assert result.extra_integrals == 0

    mixed = FrequencySpec(["1", "sqrt2"], [[1, 0], [1, 0], [0, 1]])
    result = classify(mixed)
    assert result.kind == SUPERINTEGRABLE
    assert result.closure_dimension == 2
    assert result.extra_integrals == 1


def test_classification_scaling_invariance():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 4)
        values = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        spec = FrequencySpec.from_rationals(values)
        scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = FrequencySpec.from_rationals([scale * v for v in values])
        assert classify(spec).kind == classify(scaled).kind
        assert resonance_lattice(spec).basis == resonance_lattice(scaled).basis


def test_lattice_permutation_equivariance():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 4)
        values = [Fraction(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(n)]
        spec = FrequencySpec.from_rationals(values)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = FrequencySpec.from_rationals([values[p] for p in perm])
        direct = resonance_lattice(permuted)
        moved_rows = [
            [row[perm[j]] for j in range(n)] for row in resonance_lattice(spec).basis
        ]
        recanonicalized = [
            tuple(r) for r in row_hermite_normal_form(moved_rows) if any(r)
        ]
        assert list(direct.basis) == recanonicalized


def test_lattice_saturation_against_brute_force_random():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(2, 4)
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        if any(v == 0 for v in values):
            continue
        spec = FrequencySpec.from_rationals(values)
        lattice = resonance_lattice(spec)
        for k in brute_force_relations(values, bound=4):
            assert lattice.contains(k)


@st.composite
def frequency_specs(draw):
    """Up to six frequencies over up to three symbols, with small rational coefficients."""
    m = draw(st.integers(1, 3))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = st.lists(coefficient, min_size=m, max_size=m).filter(any)
    return FrequencySpec([f"b{j}" for j in range(m)], draw(st.lists(rows, min_size=1, max_size=6)))


@settings(max_examples=200)
@given(frequency_specs(), st.data())
def test_lattice_is_unchanged_when_a_basis_column_is_scaled(spec, data):
    j = data.draw(st.integers(0, len(spec.basis) - 1))
    c = data.draw(st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30))
    scaled = FrequencySpec(spec.basis, [[x * c if k == j else x for k, x in enumerate(row)]
                                        for row in spec.coeffs])
    assert resonance_lattice(scaled).basis == resonance_lattice(spec).basis


def test_frequency_spec_validation():
    with pytest.raises(ValueError):
        FrequencySpec(["1"], [[0]])
    with pytest.raises(ValueError):
        FrequencySpec([], [[1]])
    with pytest.raises(ValueError):
        FrequencySpec(["1", "1"], [[1, 0]])
    with pytest.raises(ValueError):
        FrequencySpec(["1", "sqrt2"], [[1]])


def test_nonlinear_oscillator_per_orbit_classification():
    # quadratic-energy frequencies: omega_a proportional to the block energies,
    # so classification varies with the initial condition
    def block_energies(point):
        q1, q2, p1, p2 = point
        return [Fraction(p1) ** 2 + Fraction(q1) ** 2, Fraction(p2) ** 2 + Fraction(q2) ** 2]

    resonant_seed = (1, 1, 0, 0)  # equal block energies -> closed orbits
    generic_seed = (1, 2, 0, 0)   # rational but unequal -> still resonant
    spec_res = FrequencySpec.from_rationals(block_energies(resonant_seed))
    assert classify(spec_res).kind == MAXIMALLY_SUPERINTEGRABLE
    spec_gen = FrequencySpec.from_rationals(block_energies(generic_seed))
    assert classify(spec_gen).kind == MAXIMALLY_SUPERINTEGRABLE
    # irrational energy ratio needs an explicit independent symbol
    spec_irr = FrequencySpec(["1", "sqrt3"], [[1, 0], [0, 1]])
    assert classify(spec_irr).kind == INTEGRABLE
