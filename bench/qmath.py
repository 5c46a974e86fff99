"""Quiver arithmetic written apart from the library, for checking its answers.

Everything works on a Cartan matrix given as a list of integer rows
(vertex order fixed by the caller) and on plain integer or ``Fraction``
vectors. Nothing here imports ``quiverdec``: the checks must not share
code with what they check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """An answer of the program disagrees with the independent arithmetic."""


def cartan(n: int, edges) -> list[list[int]]:
    """Matrix of the symmetric form; each arrow (i, j) counts in both orientations."""
    c = [[0] * n for _ in range(n)]
    loops = [0] * n
    for i, j in edges:
        if i == j:
            loops[i] += 1
        else:
            c[i][j] -= 1
            c[j][i] -= 1
    for i in range(n):
        c[i][i] = 2 - 2 * loops[i]
    return c


def form(c, a, b) -> int:
    return sum(a[i] * c[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def p_value(c, a) -> int:
    """Parameter count p = 1 - q, with q(a) = (a, a) / 2."""
    return 1 - form(c, a, a) // 2


def pairing(c, a, i) -> int:
    """(a, e_i)."""
    return sum(c[i][j] * a[j] for j in range(len(a)))


def reflect(c, i, a) -> tuple:
    k = pairing(c, a, i)
    return tuple(x - k if j == i else x for j, x in enumerate(a))


def dual_reflect(c, i, lam) -> tuple:
    return tuple(x - c[i][j] * lam[i] for j, x in enumerate(lam))


def weight_dot(lam, a) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(lam, a)), Fraction(0))


def replay(c, lam, a, seq) -> tuple[tuple, tuple]:
    """Apply reflections at vertex indices ``seq``, each admissible or CheckFailed."""
    lam, a = tuple(Fraction(x) for x in lam), tuple(a)
    for pos, i in enumerate(seq):
        if c[i][i] != 2 or lam[i] == 0:
            raise CheckFailed(f"step {pos} at vertex index {i} is not admissible")
        lam, a = dual_reflect(c, i, lam), reflect(c, i, a)
    return lam, a


def connected_support(c, a) -> bool:
    supp = [i for i, x in enumerate(a) if x]
    if not supp:
        return False
    seen, todo = {supp[0]}, [supp[0]]
    while todo:
        i = todo.pop()
        for j in supp:
            if j not in seen and c[i][j] != 0:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(supp)


def in_fundamental_region(c, a) -> bool:
    return (
        all(x >= 0 for x in a)
        and connected_support(c, a)
        and all(pairing(c, a, i) <= 0 for i in range(len(a)))
    )


def root_class(c, a) -> str:
    """Kac's classification of a nonnegative nonzero vector, by descent."""
    a = tuple(a)
    while True:
        if sum(a) == 1 and c[a.index(1)][a.index(1)] == 2:
            return "Real"
        down = next((i for i in range(len(a)) if c[i][i] == 2 and pairing(c, a, i) > 0), None)
        if down is None:
            break
        a = reflect(c, down, a)
        if any(x < 0 for x in a):
            return "NotRoot"
    if not connected_support(c, a):
        return "NotRoot"
    return "IsotropicImaginary" if p_value(c, a) == 1 else "NonIsotropicImaginary"


def kernel_delta(c) -> tuple:
    """The primitive positive vector spanning a one-dimensional kernel of ``c``."""
    n = len(c)
    m = [[Fraction(x) for x in row] for row in c]
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), n) if m[r][col] != 0), None)
        if r is None:
            continue
        row = len(pivots)
        m[row], m[r] = m[r], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for k in range(n):
            if k != row and m[k][col] != 0:
                f = m[k][col]
                m[k] = [x - f * y for x, y in zip(m[k], m[row])]
        pivots.append(col)
    free = [col for col in range(n) if col not in pivots]
    if len(free) != 1:
        raise CheckFailed(f"kernel has dimension {len(free)}, expected 1")
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for row, col in enumerate(pivots):
        vec[col] = -m[row][free[0]]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        raise CheckFailed(f"kernel vector {ints} is not positive")
    return tuple(ints)


def descent_word(c, target, rng) -> list[int]:
    """Random reflection word carrying the fundamental-region vector of the
    orbit of ``target`` up to ``target``: a random descent, reversed."""
    a, down = tuple(target), []
    while True:
        choices = [i for i in range(len(a)) if c[i][i] == 2 and pairing(c, a, i) > 0]
        if not choices:
            return down[::-1]
        i = rng.choice(choices)
        a = reflect(c, i, a)
        down.append(i)
