"""The closed-form sign assignment on empty rectangles.

A sign assignment attaches +-1 to every move (every empty rectangle out
of every generator) so that the two decompositions of an index-2
composite domain carry opposite products, and the unique decomposition
of a height-1 horizontal annulus has product +1, of a width-1 vertical
annulus -1 (the axioms, which ``signs`` states and solves).
``move_sign`` is one in closed form, after Gallais's construction from
the spin extension of S_n: each generator lifts canonically to the
Clifford algebra, a move from x multiplies x's lift by the lift of the
transposition of its two rows, and the sign compares that product with
the lift of the target, corrected by the diagonal cells the rectangle
covers.  It reads nothing but x and the two rows, so every complex asks
for the signs of its own moves, one generator at a time, and no path
reads the table of every rectangle.  ``signer`` is the one place that
computes it: a generator's inversion masks are built once for all its
moves, and a rectangle's wrap and diagonal term once for all
generators, so a move pays only for the rows between the two it swaps.

The Z complexes and the poset lab load this module; the solver in
``signs``, which only ``check signs`` and the tests run, looks
``signer`` up here on each check of the closed form against the axioms.
"""

from __future__ import annotations

from .complexes import rect_ids, rect_key

__all__ = ["move_sign", "signer"]


def move_sign(x: tuple[int, ...], b: int, t: int) -> int:
    """Sign of the move out of ``x`` that swaps rows ``b`` and ``t``.

    ``b`` is the row of the rectangle's lower-left corner and ``t`` that
    of its upper-right one: the rectangle spans the rows b..b+h-1 (mod n)
    with h = (t - b) mod n, and the columns from a = x[b] to x[t].  With
    lo, hi = min(b, t), max(b, t) the sign is (-1)^e, with e the sum mod 2
    of

    * ``[t < b]``, for a rectangle that wraps through the top row;
    * the diagonal cells (r, r) the rectangle covers;
    * delta(s, k) over the adjacent swaps k = lo, lo+1, ..., hi-1, hi-2,
      ..., lo applied in turn to s = list(x), where delta(s, k) counts
      ``[s[k] > s[k+1]]`` and the inversions of s between two values
      other than s[k] and s[k+1] that both exceed min(s[k], s[k+1]).

    In the Clifford algebra Cl_n (e_i^2 = -1) the swaps multiply the
    canonical lift of x by s_lo ... s_{hi-1} ... s_lo = (e_b - e_t)/sqrt(2),
    and the delta sum compares the product with the lift of the target;
    the diagonal count, additive on squares and odd on every thin
    annulus, turns the annulus products into +1 (horizontal) and -1
    (vertical).

    The delta sum has a closed form in x's own inversions.  While x[lo]
    rises to row hi, the values other than x[lo] and the one it passes
    keep their order in x; while x[hi] sinks back to row lo, so do those
    other than x[hi] and the one it passes, except that x[lo] now sits
    above the rows between: each pair it forms with them flips.  So, mod
    2, the sum is ``[x[lo] > x[hi]]``; plus, for each value c between,
    ``[c < x[lo]] + [c > x[hi]]``, and the values between that exceed c
    if c is below both x[lo] and x[hi]; plus, for each pair {u, v} of
    x[lo] or x[hi] with a value between, and for {x[lo], x[hi]}, the
    inversions of x among the values over min(u, v) other than those of
    max(u, v).  When x[lo] > x[hi], each of the K values between that
    exceed x[hi] would add the K - 1 others: K(K - 1) in all, which is
    even, so it is left out.  ``signer`` takes these terms; this is its
    answer for the one rectangle.
    """
    n = len(x)
    a = x[b]
    return signer(n)(x, [rect_ids(n, a, b, (t - b) % n)[(x[t] - a) % n]])[0]


def signer(n: int):
    """The closed-form signs on an n x n grid, as one function.

    ``signs(x, rids)`` gives the sign ``move_sign`` states of each move
    out of generator ``x`` whose rectangle has an id in ``rids``, in
    order.  Every path that wants closed-form signs (the complex
    builder, the poset covers, ``SignConstraints.closed_form``) asks this
    one function, one generator at a time; a solved ``SignAssignment``
    answers the same call.  Each term of the exponent is paid where it
    is fixed:

    * per rectangle id (read by ``complexes.rect_key``), the rows lo < hi
      the move swaps and the parity of
      ``[t < b]`` and the diagonal cells covered, read on first use and
      kept by this signer, so only as long as its caller holds it;
    * per generator, the inversion masks ``inv[u]`` (the values forming
      an inversion with u: the values seen before u in x, XOR those
      below u) in one walk of x, and ``above[v]`` (the inversions
      between values over v) from the top value down;
    * per move, the delta sum over the rows between lo and hi.
    """
    m = n - 1
    fixed: dict[int, tuple[int, int, int]] = {}

    def fix(rid: int) -> tuple[int, int, int]:
        a, b, w, h = rect_key(n, rid)
        t = (b + h) % n
        e = t < b
        for k in range(h):
            e += (b + k - a) % n < w
        fixed[rid] = entry = (b, t, e) if b < t else (t, b, e)
        return entry

    def signs(x: tuple[int, ...], rids) -> list[int]:
        inv = [0] * n
        seen = 0
        for u in x:
            inv[u] = seen ^ ((1 << u) - 1)
            seen |= 1 << u
        above = [0] * n
        for v in range(m, 0, -1):
            above[v - 1] = above[v] + (inv[v] >> (v + 1)).bit_count()
        out = []
        for rid in rids:
            lo, hi, e = fixed.get(rid) or fix(rid)
            low, high = x[lo], x[hi]
            if low < high:
                e += above[low] + (inv[high] >> (low + 1)).bit_count()
            else:
                e += 1 + above[high] + (inv[low] >> (high + 1)).bit_count()
            if hi - lo > 1:
                # below: the values between under both low and high
                below = 0
                for c in x[lo + 1:hi]:
                    if c < low:
                        e += 1 + above[c] + (inv[low] >> (c + 1)).bit_count()
                    else:
                        e += above[low] + (inv[c] >> (low + 1)).bit_count()
                    if c > high:
                        e += 1 + above[high] \
                            + (inv[c] >> (high + 1)).bit_count()
                    else:
                        e += above[c] + (inv[high] >> (c + 1)).bit_count()
                        below += c < low
                # each such c adds the values between over it: the other
                # such values once per pair, and every other value
                e += below * (below - 1) // 2 + below * (hi - lo - 1 - below)
            out.append(-1 if e & 1 else 1)
        return out

    return signs
