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
from mixedvol import lowerdim as LD
from mixedvol import measures as MS
from mixedvol.errors import BadSpec

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


def _inconclusive_case():
    """A sheared cube against the cube, on the simplex: the deficit is about
    3.3e-9 * scale, between DEFICIT_THRESHOLD * scale and ten times that."""
    return [B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 1e-8), B.cube(), B.simplex()]


def _assert_inconclusive(bodies):
    cert = X.certify_equality_fulldim(*bodies)
    deficit = cert.deficit_report.deficit / cert.deficit_report.scale
    assert X.DEFICIT_THRESHOLD < deficit <= 10 * X.DEFICIT_THRESHOLD
    assert cert.verdict == "inconclusive"


def test_certify_inconclusive_case():
    _assert_inconclusive(_inconclusive_case())


@settings(max_examples=30, deadline=None)
@given(seeds, factors)
def test_certify_inconclusive_under_one_similarity(seed, c):
    q, t = _rotation(seed), _shift(seed, 0)
    _assert_inconclusive([B.hull(c * (p.vertices @ q.T + t))
                          for p in _inconclusive_case()])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), factors)
def test_certify_inconclusive_under_one_body_rescaled(slot, c):
    bodies = _inconclusive_case()
    bodies[slot] = B.hull(c * bodies[slot].vertices)
    _assert_inconclusive(bodies)


@pytest.mark.parametrize("s", [1e6, 1e7, 1e8])
def test_facet_sum_invariant_under_a_far_translation(s):
    # (v + t) - t is exact for |v| << |t|, so m and back are one body to the
    # last bit; only the facet sum's own arithmetic may tell them apart
    k = B.random_hull(12, 1).centered()
    t = s * np.array([1.0, 0.3, 0.0])
    m = B.hull(B.random_hull(12, 3).vertices + t)
    back = B.hull(m.vertices - t)
    assert rel_err(MS.mixed_volume_xpp(m, k), MS.mixed_volume_xpp(back, k)) <= TOL
    assert rel_err(MS.mixed_volume_xpp(B.Ball(t, 1.0), k),
                   MS.mixed_volume_xpp(B.Ball(np.zeros(3), 1.0), k)) <= TOL
    assert X.certify_equality_fulldim(k, k.scaled(2.0), m).verdict == "equality"


@pytest.mark.parametrize("s", [0.0, 1e6, 1e8])
def test_truncate_vertex_depth_does_not_depend_on_position(s):
    # the separation tolerance is taken about the centroid, as Polytope.face
    # takes it, so a cut of depth 1e-6 is made wherever the cube sits
    cube = B.cube().translate(s * np.array([1.0, 0.3, 0.0]))
    cut = B.truncate_vertex(cube, 0, 1e-6)
    assert (len(cut.vertices), len(cut.facets)) == (10, 7)
    with pytest.raises(BadSpec):
        B.truncate_vertex(cube, 0, 1e-15)


# ---------------------------------------------------------------------------
# Ball slots, the S_{L,M} oracle and the lower-dimensional certificate
# ---------------------------------------------------------------------------

def _moved_ball(ball, q, t, c):
    return B.Ball(c * (q @ ball.center + t), c * ball.radius)


BALL = B.Ball([0.3, -0.2, 0.1], 0.7)


def _ball_slot_cases(seed):
    k, l, m = _random_bodies(seed)
    other = B.Ball([-0.1, 0.4, 0.2], 1.3)
    return [(BALL, l, m), (k, BALL, m), (BALL, other, m)]


def _similar(body_, q, t, c):
    if isinstance(body_, B.Ball):
        return _moved_ball(body_, q, t, c)
    return B.hull(c * (body_.vertices @ q.T + t))


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, factors)
def test_mv3_with_a_ball_slot_under_one_similarity(seed, rot_seed, c):
    q, t = _rotation(rot_seed), _shift(rot_seed, 0)
    for case in _ball_slot_cases(seed):
        moved = [_similar(b, q, t, c) for b in case]
        assert rel_err(MS.mv3(*moved) / c ** 3, MS.mv3(*case)) <= TOL


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(0, 2), factors)
def test_mv3_with_a_ball_slot_under_one_body_rescaled(seed, slot, c):
    for case in _ball_slot_cases(seed):
        moved = list(case)
        moved[slot] = _similar(case[slot], np.eye(3), np.zeros(3), c)
        assert rel_err(MS.mv3(*moved) / c, MS.mv3(*case)) <= TOL


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, st.integers(0, 2), factors, st.booleans())
def test_mixed_volume_via_measure_similar_and_homogeneous(seed, rot_seed, slot, c,
                                                          ball_l):
    k, l, m = _random_bodies(seed)
    bodies = [k, BALL if ball_l else l, m]
    v = MS.mixed_volume_via_measure(*bodies)
    q, t = _rotation(rot_seed), _shift(rot_seed, 0)
    moved = [_similar(b, q, t, c) for b in bodies]
    assert rel_err(MS.mixed_volume_via_measure(*moved) / c ** 3, v) <= TOL
    rescaled = list(bodies)
    rescaled[slot] = _similar(bodies[slot], np.eye(3), np.zeros(3), c)
    assert rel_err(MS.mixed_volume_via_measure(*rescaled) / c, v) <= TOL


W = np.array([0.0, 0.0, 1.0])
SQUARE = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
SEGMENT = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
CUBE = B.cube().vertices


def _lower_cases():
    """(K, L, M) vertex arrays, M in W-perp, and the verdict they read."""
    rng = np.random.default_rng(7)
    polygon = np.column_stack([rng.standard_normal((6, 2)), np.zeros(6)])
    sheared = B.shear(B.cube(), [1, 0, 0], [0, 0, 1], 0.3).vertices
    plus_y = B.minkowski_sum(B.cube(), B.segment([0, 0, 0], [0, 1, 0])).vertices
    return {
        "translate": ((CUBE + [0.4, -0.7, 2.0], CUBE, SQUARE), "equality"),
        "shear": ((CUBE, sheared, SEGMENT), "equality"),
        "segment-sum": ((CUBE, plus_y, SEGMENT), "strict"),
        "random": ((body("rand10s1").vertices, body("rand10s2").vertices,
                    polygon), "strict"),
    }


LOWER_CASES = _lower_cases()


@pytest.mark.parametrize("case", list(LOWER_CASES))
def test_lower_certify_cases_have_their_verdicts(case):
    verts, verdict = LOWER_CASES[case]
    cert = LD.certify_equality_lowerdim(*map(B.hull, verts), W)
    assert cert.verdict == verdict


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(LOWER_CASES)), seeds, factors)
def test_lower_certify_verdict_invariant_under_one_similarity(case, seed, c):
    verts, verdict = LOWER_CASES[case]
    q, t = _rotation(seed), _shift(seed, 0)
    moved = [B.hull(c * (v @ q.T + t)) for v in verts]
    assert LD.certify_equality_lowerdim(*moved, q @ W).verdict == verdict


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(LOWER_CASES)), st.integers(0, 2), factors)
def test_lower_certify_verdict_invariant_under_one_body_rescaled(case, slot, c):
    verts, verdict = LOWER_CASES[case]
    bodies = [B.hull(v) for v in verts]
    bodies[slot] = B.hull(c * verts[slot])
    assert LD.certify_equality_lowerdim(*bodies, W).verdict == verdict


@pytest.mark.parametrize("move_k", [False, True])
@pytest.mark.parametrize("s", [1e6, 1e7, 1e8])
def test_lower_certify_residual_keeps_its_digits_far_from_the_origin(s, move_k):
    # the "translate" equality with L, or K and L, moved far along one
    # direction: the coordinates are exact, and the residual, taken about
    # each body's centroid, cancels as it does at the origin
    (k, l, m), _ = LOWER_CASES["translate"]
    t = s * np.array([1.0, 0.3, 0.0])
    cert = LD.certify_equality_lowerdim(B.hull(k + t if move_k else k),
                                        B.hull(l + t), B.hull(m), W)
    assert cert.sup_residual <= 1e-12 * cert.diameter
