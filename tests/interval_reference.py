"""Block-walk references for the interval closed forms.

These are the step-by-step versions that the isqrt decomposition
replaced: h found by stepping through the block starts
h + b*h*(h-1)/2, and the rho-equality runs {b*sigma(p)+1, ...,
b*sigma(p)+p+1} walked one p at a time.  They share no code with
``fengrao.interval`` beyond ``_ceil_sum0``, so the tests and
``sweep_oracle.py`` can hold the closed forms against them.
"""

from fengrao.interval import _ceil_sum0


def block_walk_decompose(r: int, b: int) -> tuple[int, int, int]:
    """(h, k, j) with r = h + b*h*(h-1)/2 + k*h + j, by walking the blocks."""

    def block_start(q: int) -> int:
        return q + b * q * (q - 1) // 2

    h = 1
    while block_start(h + 1) <= r:
        h += 1
    s = r - block_start(h)
    if s == 0:
        return h, -1, h
    k = (s + h - 1) // h - 1
    return h, k, s - k * h


def block_walk_feng_rao_number(a: int, b: int, r: int) -> int:
    h, k, _ = block_walk_decompose(r, b)
    width = b * (h - 1) + k + 1
    if width + 1 >= a + b:
        width = a + b - 1
    return r - 1 + _ceil_sum0(width, a, b)


def run_walk_rho_equality_predicted(a: int, b: int, r: int) -> bool:
    h, k, _ = block_walk_decompose(r, b)
    if b * (h - 1) + k + 2 >= a:
        return True
    p = 0
    while True:
        lo = b * p * (p + 1) // 2 + 1
        if lo > r:
            return False
        if r <= lo + p:
            return True
        p += 1
