"""Crystal operators on words and tableaux, weights, and dominance.

Words are lists of letters from [1, 2n].  The signature rule cancels
adjacent "i+1 i" pairs; what survives is i^a (i+1)^b, and the operators
act on the surviving letters.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice
from operator import le

from .shapes import Partition, canonical, conjugate
from .tableaux import Column, Rows, chains, columns_of, content, row_word, validate_ssyt

Word = list[int]


def wt_ghat(T: Rows, n: int) -> tuple[int, ...]:
    """Coordinate i is T[i] - T[2n - i + 1]; T may be rows or columns."""
    c = content(T, 2 * n)
    return tuple(c[i] - c[-1 - i] for i in range(n))


def ab_sequences(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The interleaving sequences a_k = 2k - (1 + (-1)^k)/2, b_k = 2k - (1 + (-1)^(k+1))/2."""
    a = tuple(2 * k - (1 + (-1) ** k) // 2 for k in range(1, n + 1))
    b = tuple(2 * k - (1 + (-1) ** (k + 1)) // 2 for k in range(1, n + 1))
    return a, b


def wt_k(T: Rows, n: int) -> tuple[int, ...]:
    """Coordinate k is T[a_k] - T[b_k]."""
    a, b = ab_sequences(n)
    c = content(T, 2 * n)
    return tuple(c[a[k] - 1] - c[b[k] - 1] for k in range(n))


def _signature(word: Word, i: int) -> tuple[list[int], list[int]]:
    """Positions of surviving letters i and i+1 after pair cancellation."""
    open_stack: list[int] = []
    closed: list[int] = []
    for p, letter in enumerate(word):
        if letter == i + 1:
            open_stack.append(p)
        elif letter == i:
            if open_stack:
                open_stack.pop()
            else:
                closed.append(p)
    return closed, open_stack


def eps(word: Word, i: int) -> int:
    """Number of surviving letters i+1."""
    return len(_signature(word, i)[1])


def phi(word: Word, i: int) -> int:
    """Number of surviving letters i."""
    return len(_signature(word, i)[0])


def crystal_e(word: Word, i: int) -> Word | None:
    """Raise the leftmost surviving i+1 to i, or None if none survives."""
    surviving = _signature(word, i)[1]
    if not surviving:
        return None
    out = list(word)
    out[surviving[0]] = i
    return out


def crystal_f(word: Word, i: int) -> Word | None:
    """Lower the rightmost surviving i to i+1, or None if none survives."""
    surviving = _signature(word, i)[0]
    if not surviving:
        return None
    out = list(word)
    out[surviving[-1]] = i + 1
    return out


def e_max(word: Word, i: int) -> Word:
    """Raise every surviving i+1 to i: crystal_e until it returns None."""
    raised = set(_signature(word, i)[1])
    return [i if p in raised else letter for p, letter in enumerate(word)]


def f_max(word: Word, i: int) -> Word:
    """Lower every surviving i to i+1: crystal_f until it returns None."""
    lowered = set(_signature(word, i)[0])
    return [i + 1 if p in lowered else letter for p, letter in enumerate(word)]


def tensor_e(b1: Word, b2: Word, i: int) -> tuple[Word, Word] | None:
    """Raising operator on a tensor pair: acts on b1 iff eps(b1) > phi(b2)."""
    if eps(b1, i) > phi(b2, i):
        lifted = crystal_e(b1, i)
        return None if lifted is None else (lifted, b2)
    lifted = crystal_e(b2, i)
    return None if lifted is None else (b1, lifted)


def tensor_f(b1: Word, b2: Word, i: int) -> tuple[Word, Word] | None:
    """Lowering operator on a tensor pair: acts on b1 iff eps(b1) >= phi(b2)."""
    if eps(b1, i) >= phi(b2, i):
        lowered = crystal_f(b1, i)
        return None if lowered is None else (lowered, b2)
    lowered = crystal_f(b2, i)
    return None if lowered is None else (b1, lowered)


def _apply_word_op(T: Rows, i: int, op) -> Rows | None:
    moved = op(row_word(T), i)
    if moved is None:
        return None
    # The row word reads the bottom row first: cut it back by row length.
    letters = iter(moved)
    out = [list(islice(letters, len(row))) for row in reversed(T)][::-1]
    if not validate_ssyt(out):
        raise ValueError("crystal operator broke semistandardness")
    return out


def tableau_e(T: Rows, i: int) -> Rows | None:
    """Raising operator on a tableau, via its row word."""
    return _apply_word_op(T, i, crystal_e)


def tableau_f(T: Rows, i: int) -> Rows | None:
    """Lowering operator on a tableau, via its row word."""
    return _apply_word_op(T, i, crystal_f)


def tableau_e_max(T: Rows, i: int) -> Rows:
    return _apply_word_op(T, i, e_max)


def tableau_f_max(T: Rows, i: int) -> Rows:
    return _apply_word_op(T, i, f_max)


def tableau_eps(T: Rows, i: int) -> int:
    return eps(row_word(T), i)


def tableau_phi(T: Rows, i: int) -> int:
    return phi(row_word(T), i)


def ghat_dominance_violation(T: Rows, n: int) -> int | None:
    """First prefix index (1-based) of the inverse column word whose partial
    weight is not a weakly decreasing nonnegative sequence, or None;
    ValueError unless T is semistandard with entries at most 2n."""
    cols = columns_of(T)
    if any(col[-1] > 2 * n for col in cols):
        raise ValueError(f"entries exceed {2 * n}: {T}")
    return column_dominance_violation(cols, n)


def column_dominance_violation(cols: list[Column], n: int) -> int | None:
    """ghat_dominance_violation on the columns of a semistandard tableau over
    [1, 2n]: the partial weight is carried column by column through the
    cached _dominance_step."""
    m, p = (0,) * (n + 1), 0
    for col in reversed(cols):
        m, bad = _dominance_step(col, m, n)
        if m is None:
            return p + bad
        p += len(col)
    return None


@cache
def _dominance_step(col: Column, m: tuple[int, ...], n: int) -> tuple:
    """(the partial weight m after the letters of col, None), or (None, the
    1-based offset in col of the first letter whose prefix is not dominant).
    The prefix before each letter is dominant, so only the coordinate the
    letter moves is compared, with its neighbour; the zero sentinel m[n]
    makes the last coordinate's neighbour the bound 0."""
    m = list(m)
    for offset, letter in enumerate(col, start=1):
        if letter <= n:
            k = letter - 1
            m[k] += 1
            if k and m[k - 1] < m[k]:
                return None, offset
        else:
            k = 2 * n - letter
            m[k] -= 1
            if m[k] < m[k + 1]:
                return None, offset
    return tuple(m), None


def dominant_columns(lam: Partition, n: int) -> list[list[Column]]:
    """The column lists of the tableaux of shape lam over [1, 2n] that
    column_dominance_violation passes, in enumerate_columns order.  The
    inverse column word grows one column at a time, right to left, each
    column row-wise at most the one to its right, so chains of (column,
    partial weight) nodes, each weight carried through _dominance_step,
    cut a branch at its first non-dominant prefix."""

    @cache
    def below(right: Column, k: int) -> list[Column]:
        return [col for col in combinations(range(1, 2 * n + 1), k) if all(map(le, col, right))]

    def children(node: tuple, k: int) -> list[tuple]:
        right, m = node
        return [(col, w) for col in below(right, k) if (w := _dominance_step(col, m, n)[0])]

    found = chains(conjugate(canonical(lam))[::-1], children, ((), (0,) * (n + 1)))
    return sorted([col for col, _ in reversed(chain)] for chain in found)


def is_ghat_dominant(T: Rows, n: int) -> bool:
    """Every prefix of the inverse column word has dominant partial weight."""
    return ghat_dominance_violation(T, n) is None
