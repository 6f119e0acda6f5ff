"""The packed SpectralField against the dict-of-blocks references."""

import math

import numpy as np
import pytest

from lie_diffuse.harmonic import (
    SU2,
    TORUS1,
    RepIndex,
    SpectralField,
    field_layout,
    plancherel_norm,
    random_field,
    spectral_inner,
)
from lie_diffuse.symbol import (
    OperatorSpec,
    OperatorTerm,
    _invariant_operand,
    apply_spectral,
    build_operator_symbol,
    invariant_apply,
    weighted_field,
)
from oracles import (
    BlockField,
    invariant_apply_bands,
    invariant_apply_blocks,
    plancherel_norm_blocks,
    spectral_inner_blocks,
    weighted_field_blocks,
)
from test_wellposed import count_evaluator_calls

LAYOUTS = [(SU2, 0), (SU2, 5), (TORUS1, 0), (TORUS1, 4)]

# Diagonal symbols with real entries.  The per-entry product then equals the
# diagonal-matrix product exactly; with both a real and an imaginary part a
# BLAS kernel may fuse a multiply-add the elementwise product rounds twice.
SU2_DIAGONAL = [OperatorTerm("laplace", 0.5, -1.0),
                OperatorTerm("sublaplace", 0.75, -0.3),
                OperatorTerm("bessel", -1.0, 0.2),
                OperatorTerm("sbessel", 2.0, -0.1),
                OperatorTerm("id", const=0.4),
                OperatorTerm("d0", const=0.3),
                OperatorTerm("iX3", const=-0.2)]
CIRCLE_DIAGONAL = [OperatorTerm("laplace", 0.5, -1.0),
                   OperatorTerm("bessel", 1.0, 0.25),
                   OperatorTerm("id", const=-0.5)]
SU2_DENSE = SU2_DIAGONAL[:2] + [OperatorTerm("X1", const=0.3),
                                OperatorTerm("X2", const=-0.2j),
                                OperatorTerm("d+", const=0.1),
                                OperatorTerm("d-", const=0.05),
                                OperatorTerm("id", const=0.4 - 0.1j)]


def same_blocks(F, W):
    assert list(F.coeffs) == list(W.coeffs)
    assert all(np.array_equal(F[rep], W[rep]) for rep in W.coeffs)


def with_profile(terms):
    """The terms with a time profile on the first one."""
    first = terms[0]
    return [OperatorTerm(first.base, first.exponent, first.const,
                         profile=lambda t: 1.0 + 0.5 * math.sin(3.0 * t))] + terms[1:]


@pytest.mark.parametrize("group,two_L", LAYOUTS)
def test_arithmetic_matches_blocks(group, two_L):
    F, G = random_field(group, two_L, 1), random_field(group, two_L, 2)
    BF, BG = BlockField.of(F), BlockField.of(G)
    same_blocks(F + G, BF + BG)
    same_blocks(F - G, BF - BG)
    same_blocks(2.5 * F, 2.5 * BF)
    same_blocks(F * (0.5 - 1j), BF * (0.5 - 1j))
    same_blocks(-F, -BF)
    same_blocks(2.0 * F - G, 2.0 * BF - BG)
    same_blocks(np.float64(2.0) * F, 2.0 * BF)
    same_blocks(np.complex128(0.5 - 1j) * F, (0.5 - 1j) * BF)
    same_blocks(F.copy(), BF)
    same_blocks(F.zeros_like(), BlockField(group, two_L))


@pytest.mark.parametrize("kind", ["elliptic", "subelliptic"])
@pytest.mark.parametrize("group,two_L", LAYOUTS)
def test_bessel_weights_match_blocks(group, two_L, kind):
    F = random_field(group, two_L, 3)
    for s in (-1.5, 0.5, 1.0, 2.0):
        same_blocks(weighted_field(F, s, kind),
                    weighted_field_blocks(BlockField.of(F), s, kind))
    with pytest.raises(ValueError, match="kind"):
        weighted_field(F, 1.0, "hyperbolic")


@pytest.mark.parametrize("t_dependent", [False, True])
@pytest.mark.parametrize("group,two_L", LAYOUTS)
def test_diagonal_symbol_is_a_broadcast_matching_blocks(group, two_L, t_dependent):
    terms = SU2_DIAGONAL if group == SU2 else CIRCLE_DIAGONAL
    sym = build_operator_symbol(OperatorSpec(
        group, two_L, with_profile(terms) if t_dependent else terms))
    F = random_field(group, two_L, 4)
    assert isinstance(_invariant_operand(sym, 0.3, F), np.ndarray)
    for t in (0.0, 0.3):
        same_blocks(invariant_apply(sym, F, t),
                    invariant_apply_blocks(sym, BlockField.of(F), t))


@pytest.mark.parametrize("group,two_L", LAYOUTS)
def test_imaginary_and_complex_diagonals(group, two_L):
    """X3 alone (imaginary diagonal) matches exactly; complex diagonals
    (laplace + X3, a complex id) to within one rounding per entry."""
    F = random_field(group, two_L, 4)
    cases = [[OperatorTerm("laplace", 0.5, -1.0), OperatorTerm("id", const=0.4 - 0.1j)]]
    if group == SU2:
        cases += [[OperatorTerm("X3", const=0.7)],
                  [OperatorTerm("laplace", 0.5, -1.0), OperatorTerm("X3", const=0.7)]]
    for k, terms in enumerate(cases):
        sym = build_operator_symbol(OperatorSpec(group, two_L, terms))
        got = invariant_apply(sym, F)
        want = invariant_apply_blocks(sym, BlockField.of(F))
        if k == 1:
            same_blocks(got, want)
        for rep in want.coeffs:
            err = np.abs(got[rep] - want[rep])
            assert np.all(err <= 2.0 * np.finfo(float).eps * np.abs(want[rep]))


@pytest.mark.parametrize("t_dependent", [False, True])
@pytest.mark.parametrize("two_L", [0, 5])
def test_dense_symbol_matches_blocks(two_L, t_dependent):
    """Tridiagonal symbols act through their bands: bit-identical to the
    row-by-row band oracle, and within the rounding bound of three-term sums
    (4 eps (|A| @ |V|) per entry) of the dense matrix product."""
    terms = with_profile(SU2_DENSE) if t_dependent else SU2_DENSE
    sym = build_operator_symbol(OperatorSpec(SU2, two_L, terms))
    F = random_field(SU2, two_L, 5)
    assert not isinstance(_invariant_operand(sym, 0.3, F), tuple)
    for t in (0.0, 0.3):
        got = invariant_apply(sym, F, t)
        same_blocks(got, invariant_apply_bands(sym, BlockField.of(F), t))
        want = invariant_apply_blocks(sym, BlockField.of(F), t)
        for rep, V in F.items():
            bound = np.abs(sym.evaluator(t, None, rep)) @ np.abs(V)
            assert np.all(np.abs(got[rep] - want[rep])
                          <= 4.0 * np.finfo(float).eps * bound)


@pytest.mark.parametrize("t_dependent", [False, True])
def test_structured_apply_makes_no_evaluator_calls(t_dependent):
    """Structured operands come from the terms, x-dependent or not."""
    terms = with_profile(SU2_DENSE) if t_dependent else SU2_DENSE
    space = random_field(SU2, 2, 11)
    x_terms = terms + [OperatorTerm("X2", const=0.2, space=space)]
    F = random_field(SU2, 3, 12)
    for sym in (build_operator_symbol(OperatorSpec(SU2, 3, terms)),
                build_operator_symbol(OperatorSpec(SU2, 3, x_terms))):
        calls = count_evaluator_calls(sym)
        for t in (0.0, 0.3):
            apply_spectral(sym, t, F)
            if sym.x_independent:
                invariant_apply(sym, F, t)
        assert len(calls) == 0


@pytest.mark.parametrize("group,two_L", LAYOUTS + [(SU2, 1)])
def test_row_shift_indices(group, two_L):
    """prev_row / next_row point one block row up / down, and at the first /
    last row of a block to the entry itself."""
    lay = field_layout(group, two_L)
    idx = np.arange(lay.size)
    for sl, d in lay.slots.values():
        block = idx[sl].reshape(d, d)
        assert np.array_equal(lay.prev_row[sl].reshape(d, d),
                              np.vstack([block[:1], block[:-1]]))
        assert np.array_equal(lay.next_row[sl].reshape(d, d),
                              np.vstack([block[1:], block[-1:]]))
    if group == TORUS1 or two_L == 0:   # d = 1: no off-bands
        assert np.array_equal(lay.prev_row, idx)
        assert np.array_equal(lay.next_row, idx)
    if (group, two_L) == (SU2, 1):
        assert lay.prev_row.tolist() == [0, 1, 2, 1, 2]
        assert lay.next_row.tolist() == [0, 3, 4, 3, 4]
    assert not lay.prev_row.flags.writeable and not lay.next_row.flags.writeable


@pytest.mark.parametrize("group,two_L", LAYOUTS + [(SU2, 1)])
def test_row_starts(group, two_L):
    """row_starts lists the first entry of every block row, in buffer order."""
    lay = field_layout(group, two_L)
    want = [sl.start + r * d for sl, d in lay.slots.values() for r in range(d)]
    assert lay.row_starts.tolist() == want
    assert not lay.row_starts.flags.writeable


@pytest.mark.parametrize("group,two_L", LAYOUTS + [(SU2, 16), (TORUS1, 40)])
def test_norms_match_blocks(group, two_L):
    F, G = random_field(group, two_L, 8), random_field(group, two_L, 9)
    BF, BG = BlockField.of(F), BlockField.of(G)
    want = plancherel_norm_blocks(BF)
    assert abs(plancherel_norm(F) - want) <= 1e-13 * want
    want = spectral_inner_blocks(BF, BG)
    assert abs(spectral_inner(F, G) - want) <= 1e-13 * abs(want)
    assert spectral_inner(F, F).real == plancherel_norm(F)


def test_blocks_are_views_and_assignment_copies_in():
    F = SpectralField.zeros(SU2, 3)
    rep = RepIndex(SU2, two_ell=2)
    m = np.arange(9.0).reshape(3, 3)
    F.coeffs[rep] = m
    m[0, 0] = 99.0
    assert F[rep][0, 0] == 0.0 and F[rep][2, 2] == 8.0
    F[rep][1, 2] = 5j
    assert F.coeffs[rep][1, 2] == 5j and 5j in F.data
    block = F[rep]
    block += 1.0
    assert F[rep][0, 0] == 1.0
    assert all(np.shares_memory(b, F.data) for b in F.coeffs.values())
    assert all(np.shares_memory(b, F.data) for _, b in F.items())
    G = SpectralField(SU2, 3, {rep: m})
    assert not np.shares_memory(G[rep], m)


def test_block_assignment_is_checked():
    F = SpectralField.zeros(SU2, 3)
    with pytest.raises(ValueError, match="shape"):
        F.coeffs[RepIndex(SU2, two_ell=2)] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="bandlimit"):
        F.coeffs[RepIndex(SU2, two_ell=4)] = np.zeros((5, 5))
    with pytest.raises(ValueError, match="bandlimit"):
        F.coeffs[RepIndex(TORUS1, k=0)] = np.ones((1, 1))
    with pytest.raises(ValueError, match="bandlimit"):
        SpectralField(SU2, 3, {RepIndex(SU2, two_ell=5): np.eye(6)})
    with pytest.raises(ValueError, match="shape"):
        SpectralField(SU2, 3, {RepIndex(SU2, two_ell=1): np.eye(3)})
    with pytest.raises(ValueError, match="buffer"):
        F.with_data(np.zeros(F.data.size + 1))
    with pytest.raises(KeyError):
        F[RepIndex(SU2, two_ell=4)]
