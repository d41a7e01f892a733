"""Jacobson radical over F_p, certified in every odd characteristic.

The radical is computed as a descending chain: R_0 is the kernel of the
trace form, and while p^i does not exceed the dimension, R_i is the kernel
of the symmetric pairing (x, y) -> c_{p^i}(xy) on R_{i-1}, where c_k(z) is
the coefficient of T^(n-k) in the characteristic polynomial of left
multiplication by z.  Two facts make every verdict self-certifying, so no
step has to be taken on faith:

  * the radical lies inside every R_i (left multiplication by a radical
    multiple is nilpotent, so all its lower characteristic coefficients
    vanish), hence a zero final stage proves semisimplicity outright;
  * a nonzero final stage is accepted only after an explicit check that it
    is a two-sided ideal with vanishing power, which forces it inside the
    radical and therefore equal to it.

If the explicit check ever failed the input would be refused rather than
guessed at.  For p > dim the chain is the single trace-form stage.

Stage 0 costs O(dim^3); the stages past it, which run only while
p <= dim, cost O(dim^5) in practice.  So at every p blocks.full_isomorphism
first tries the decomposition, whose checked certificate proves
semisimplicity on its own, and runs the chain only when that fails: to
certify the radical it rejects with, or to certify that it is zero.
Nothing is kept on the presentation: each call computes the chain afresh.

A stage past the trace form needs c_k(x_s x_t) for all m(m+1)/2 pairs of
the current basis.  It is computed in bulk: one Algebra.products call gives
the products x_s x_t, whose left multiplication matrices (Algebra.left) go
through linalg.char_poly as stacks of at most _CHUNK_ENTRIES entries, so a
stage makes one char_poly call per chunk and the matrices it holds do not
grow with m^2.  The explicit ideal and nilpotency checks use Algebra.products.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotSemisimple, UnsupportedCharacteristic


@dataclass
class RadicalReport:
    """Certified radical of a presentation.

    rows: canonical (reduced echelon) basis of the radical, one row each.
    stage_dims: dimension after each chain stage, for diagnostics.
    nilpotency_index: least m with rad^m = 0; 0 when the radical is zero.
    """

    rows: np.ndarray
    stage_dims: list = field(default_factory=list)
    nilpotency_index: int = 0

    @property
    def is_semisimple(self):
        return self.rows.shape[0] == 0


# int64 entries of one stack of pair products (8 MB); char_poly's temporaries
# are a few times that, whatever the number of pairs
_CHUNK_ENTRIES = 2**20


def _char_coeff_form(A, rows, k):
    """Gram matrix of (x, y) -> c_k(xy) on the span of the given rows.

    One A.products call gives x_s x_t for all pairs; those with s <= t go
    through A.left in chunks, each chunk one stack of the matrices
    L_{x_s x_t}^T (same characteristic polynomial as L_{x_s x_t}) and one
    char_poly call.
    """
    m, n, p = rows.shape[0], A.dim, A.p
    su, tu = np.triu_indices(m)
    prods = A.products(rows, rows)[su, tu]
    B = np.zeros((m, m), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, su.size, step):
        s, t = su[lo : lo + step], tu[lo : lo + step]
        stack = A.left(prods[lo : lo + step])
        B[s, t] = B[t, s] = linalg.char_poly(stack, p)[:, n - k]
    return B


def trace_kernel(A):
    """Stage 0 of the chain: canonical basis (rows) of the kernel of the
    trace form (c_1 is minus the trace), in O(dim^3)."""
    return linalg.row_space_basis(linalg.kernel(A.gram_matrix(), A.p), A.p)


def _chain(A):
    p, n = A.p, A.dim
    rows = trace_kernel(A)
    stage_dims = [rows.shape[0]]
    k = p
    while k <= n and rows.shape[0] > 0:
        null = linalg.kernel(_char_coeff_form(A, rows, k), p)
        if null.shape[0] == 0:
            rows = np.zeros((0, n), dtype=np.int64)
        else:
            rows = linalg.row_space_basis(
                linalg.matmul_mod(null, rows, p), p
            )
        stage_dims.append(rows.shape[0])
        k *= p
    return rows, stage_dims


def _verify_two_sided_ideal(A, rows):
    R, pivots = linalg.row_echelon(rows, A.p)
    basis = np.eye(A.dim, dtype=np.int64)
    prods = np.concatenate([
        A.products(basis, rows).reshape(-1, A.dim),  # b_i * r
        A.products(rows, basis).reshape(-1, A.dim),  # r * b_i
    ])
    return not linalg.reduce_rows(R, pivots, prods, A.p).any()


def _verify_nilpotent(A, rows):
    """Least m with span^m = 0, or None if the chain fails to shrink."""
    cur = rows
    for m in range(2, A.dim + 2):
        nxt = linalg.row_space_basis(
            A.products(cur, rows).reshape(-1, A.dim), A.p
        )
        if nxt.shape[0] == 0:
            return m
        if nxt.shape[0] >= cur.shape[0]:
            return None
        cur = nxt
    return None


def radical_report(A):
    """Compute and certify the radical."""
    A.require_associative()
    rows, stage_dims = _chain(A)
    if rows.shape[0] == 0:
        return RadicalReport(rows.reshape(0, A.dim), stage_dims, 0)
    if not _verify_two_sided_ideal(A, rows):
        raise UnsupportedCharacteristic(
            f"radical candidate is not an ideal at p={A.p}, dim={A.dim}; "
            "refusing to decide semisimplicity"
        )
    index = _verify_nilpotent(A, rows)
    if index is None:
        raise UnsupportedCharacteristic(
            f"radical candidate is not nilpotent at p={A.p}, dim={A.dim}; "
            "refusing to decide semisimplicity"
        )
    return RadicalReport(rows, stage_dims, index)


def require_semisimple(A):
    """Return the report for a semisimple A, else raise with the radical."""
    report = radical_report(A)
    if not report.is_semisimple:
        raise NotSemisimple(report.rows)
    return report
