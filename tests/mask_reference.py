"""Digit-string reference for the divisor mask builder.

This is the builder that shifting the stored masks of S ∩ [0, c]
replaced: it writes S ∩ [0, top] as binary digits, "1" at index s for
each element s (the run [c, top] one slice, the small elements one by
one), and reads them backwards for the mask of S and forwards for that
of top - S.  It shares nothing with ``fengrao.divisors`` beyond the
semigroup's ``conductor`` and ``small_elements``, so the tests can hold
``_element_masks`` against it.
"""

from bisect import bisect_right


def digit_element_masks(sgp, top: int) -> tuple[int, int]:
    """The masks of S and of top - S, both cut to [0, top]."""
    digits = bytearray(b"0") * (top + 1)
    digits[sgp.conductor :] = b"1" * (top + 1 - sgp.conductor)
    for s in sgp.small_elements[: bisect_right(sgp.small_elements, top)]:
        digits[s] = 49  # ord("1")
    return int(digits[::-1], 2), int(digits, 2)
