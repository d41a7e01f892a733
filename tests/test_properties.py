"""Property-based end-to-end checks over randomly drawn inputs."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wedderburn import (
    Algebra,
    algebra,
    build_planted,
    full_isomorphism,
    is_prime,
    linalg,
    radical_report,
    result_to_doc,
    scramble,
    verify_isomorphism,
)
from wedderburn.blocks import apply_iso, target_multiply
from wedderburn.cli import canonical_json
from wedderburn.linalg import matmul_mod

# keep the total dimension small so a drawn example stays fast
block_shapes = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3
).filter(lambda spec: sum(n * n * d for n, d in spec) <= 12)


def next_odd_prime(n):
    """The least odd prime >= n; at most 2^31 - 1 (a prime) for n below it."""
    n = max(n, 3)
    while not is_prime(n):
        n += 1
    return n


# odd primes from the whole range, spread over bit lengths: the least prime
# at or above a number of 2..31 bits, so small p (which can divide a block
# size) are drawn as often as wide ones
primes = st.integers(2, 31).flatmap(
    lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)
).map(next_odd_prime)


def round_trip(spec, p, seed):
    A, _ = scramble(build_planted(spec, p).algebra, seed=seed)
    res = full_isomorphism(A, seed=0)
    assert sorted((b.n, b.D.degree) for b in res.blocks) == sorted(spec)
    assert verify_isomorphism(A, res).passed


@given(block_shapes, primes, st.integers(0, 500))
@example([(2, 1), (1, 2)], 2**31 - 1, 0)  # the top of the range, every run
@settings(max_examples=30, deadline=None)
def test_round_trip_any_planted_spec(spec, p, seed):
    round_trip(spec, p, seed)


@given(block_shapes, primes, st.integers(0, 500))
@example([(2, 1), (1, 2)], 2**31 - 1, 0)
@settings(max_examples=15, deadline=None)
def test_round_trip_on_the_blas_kernels(spec, p, seed):
    # at dim <= 12 almost every product is small enough for the int64
    # kernel; with it off they all run on float64 BLAS, on 16-bit limbs
    # once K (p-1)^2 reaches 2^53
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_SMALL_MACS", 0)
        round_trip(spec, p, seed)


@given(
    block_shapes,
    primes,
    st.integers(0, 100),
    st.randoms(use_true_random=False),
)
@settings(max_examples=20, deadline=None)
def test_iso_is_a_ring_map_on_random_elements(spec, p, seed, rng):
    A, _ = scramble(build_planted(spec, p).algebra, seed=seed)
    res = full_isomorphism(A, seed=0)
    x = np.array([rng.randrange(p) for _ in range(A.dim)])
    y = np.array([rng.randrange(p) for _ in range(A.dim)])
    lhs = apply_iso(res, A.mul_vec(x, y))
    rhs = target_multiply(A, res, apply_iso(res, x), apply_iso(res, y))
    for gl, gr in zip(lhs, rhs):
        for rl, rr in zip(gl, gr):
            for el, er in zip(rl, rr):
                assert el.tolist() == er.tolist()
    # linearity comes free with the matrix form; check it anyway on a sum
    z = matmul_mod(res.iso, ((x + y) % p)[:, None], p)[:, 0]
    zx = matmul_mod(res.iso, x[:, None], p)[:, 0]
    zy = matmul_mod(res.iso, y[:, None], p)[:, 0]
    assert z.tolist() == ((zx + zy) % p).tolist()


@given(st.integers(2**30, 2**31 - 1).map(next_odd_prime), st.integers(0, 500))
@example(2**31 - 1, 0)
@settings(max_examples=10, deadline=None)
def test_wide_prime_document_round_trip(p, seed):
    # a scrambled cube at p > 2^30 holds entries above 2^30: after JSON they
    # take doc_array's typed pass, and the certificate, which from_doc
    # leaves pending, concludes on its own
    A, _ = scramble(build_planted([(2, 1), (1, 2)], p).algebra, seed=seed)
    doc = json.loads(json.dumps(A.to_doc()))
    assert algebra._int_lists(doc["structure_constants"], 3) is not None
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        blocked = Algebra._check_associativity
        patch.setattr(Algebra, "_check_associativity",
                      lambda self: calls.append(self.dim) or blocked(self))
        B = algebra.from_doc(doc)
        B.require_associative()
    assert calls == [] and len(B._generators) > 0
    assert B.p == p and B.sc.tolist() == A.sc.tolist()
    assert B.one.tolist() == A.one.tolist()


DIVIDING = [
    (3, [(3, 1)]),
    (3, [(3, 1), (1, 2)]),
    (3, [(3, 2)]),
    (5, [(5, 1)]),
]


@pytest.mark.parametrize("p, spec", DIVIDING)
def test_characteristic_dividing_a_block_size(p, spec):
    # p | n_i degenerates the trace form on that block, so the radical
    # chain must run past stage 0 to certify semisimplicity
    A, _ = scramble(build_planted(spec, p).algebra, seed=1)
    assert radical_report(A).stage_dims[-1] == 0
    res = full_isomorphism(A, seed=0)
    assert sorted((b.n, b.D.degree) for b in res.blocks) == sorted(spec)
    assert verify_isomorphism(A, res).passed


@pytest.mark.parametrize("p, spec", DIVIDING)
def test_dividing_report_does_not_depend_on_a_cached_radical(p, spec):
    # the same report, byte for byte, whether or not the radical was
    # computed before the decomposition
    def report(A):
        res = full_isomorphism(A, seed=0)
        return canonical_json(result_to_doc(res, verify_isomorphism(A, res)))

    fresh, _ = scramble(build_planted(spec, p).algebra, seed=1)
    known, _ = scramble(build_planted(spec, p).algebra, seed=1)
    assert radical_report(known).stage_dims[-1] == 0
    assert report(fresh) == report(known)
