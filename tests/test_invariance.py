"""The invariances the paper relies on, across the input range.

V(K, L, M) is multilinear and invariant under translation, rotation and the
order of the vertex rows, so V(a(K+s), b(L+t), c(M+r)) = abc V(K, L, M). The
equality certificate's verdict must not change when (K, L, M) all undergo one
similarity, or when one body is rescaled anywhere from 1e-8 to 1e8.
Translations scale with the body: a shift of unit size on a body of size 1e-8
would lose digits in the input itself, not in the computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from mixedvol import bodies as B
from mixedvol import extremal as X
from mixedvol import measures as MS

from conftest import body, rel_err

TOL = 1e-12

seeds = st.integers(0, 10**6)
factors = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


def _random_bodies(seed):
    return [B.random_hull(10, seed + i) for i in range(3)]


def _rotation(seed):
    return special_ortho_group.rvs(3, random_state=seed)


def _shift(seed, i):
    return np.random.default_rng([seed, i]).standard_normal(3)


@settings(max_examples=60, deadline=None)
@given(seeds, factors, factors, factors)
def test_mixed_volume_homogeneous_and_translation_invariant(seed, a, b, c):
    bodies = _random_bodies(seed)
    moved = [B.hull(f * (p.vertices + _shift(seed, i)))
             for i, (p, f) in enumerate(zip(bodies, (a, b, c)))]
    v = MS.mixed_volume(*bodies)
    assert rel_err(MS.mixed_volume(*moved) / (a * b * c), v) <= TOL


@settings(max_examples=40, deadline=None)
@given(seeds, seeds)
def test_mixed_volume_rotation_invariant(seed, rot_seed):
    bodies = _random_bodies(seed)
    q = _rotation(rot_seed)
    rotated = [B.hull(p.vertices @ q.T) for p in bodies]
    assert rel_err(MS.mixed_volume(*rotated), MS.mixed_volume(*bodies)) <= TOL


@settings(max_examples=40, deadline=None)
@given(seeds, seeds)
def test_mixed_volume_invariant_under_vertex_order(seed, perm_seed):
    bodies = _random_bodies(seed)
    rng = np.random.default_rng(perm_seed)
    permuted = [B.hull(p.vertices[rng.permutation(len(p.vertices))])
                for p in bodies]
    assert rel_err(MS.mixed_volume(*permuted), MS.mixed_volume(*bodies)) <= TOL


# (K, L, M) -> verdict; each verdict the certificate gives is represented
CERT_CASES = {
    ("trunc:0.1", "cube", "simplex"): "equality",
    ("cube", "cube", "cube"): "equality",
    ("trunc:0.1", "cube", "cube"): "equality",
    ("shear:0.3", "cube", "simplex"): "strict",
    ("cube", "simplex", "ball@1"): "strict",
    ("rand10s1", "rand10s2", "cube"): "strict",
}


@pytest.mark.parametrize("case", list(CERT_CASES))
def test_certify_cases_have_their_verdicts(case):
    assert (X.certify_equality_fulldim(*map(body, case)).verdict
            == CERT_CASES[case])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(CERT_CASES)), seeds, factors)
def test_certify_verdict_invariant_under_one_similarity(case, seed, c):
    q, t = _rotation(seed), _shift(seed, 0)
    moved = [B.hull(c * (body(n).vertices @ q.T + t)) for n in case]
    assert X.certify_equality_fulldim(*moved).verdict == CERT_CASES[case]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(CERT_CASES)), st.integers(0, 2), factors)
def test_certify_verdict_invariant_under_one_body_rescaled(case, slot, c):
    bodies = [body(n) for n in case]
    bodies[slot] = B.hull(c * bodies[slot].vertices)
    assert X.certify_equality_fulldim(*bodies).verdict == CERT_CASES[case]
