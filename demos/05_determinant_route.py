"""Recover the palindromic parts from a determinant, no enumeration.

The series coefficients f_n(t, r) satisfy a triangular recurrence whose
Cramer solution is an (n+1) x (n+1) determinant with entries that are
polynomials in t and r.  At each integer r the entries are integer
polynomials in t, and fraction-free (Bareiss) elimination over Z[t]
computes the determinant with exact divisions only.  Both the
determinant and f_n have degree at most n in r, so their values at
r = 0..n fix them.  Resumming those values over r and stripping a
boundary term rebuilds a_n(s, t) exactly, which this script checks
against the enumeration-built value.

Run:  python3 demos/05_determinant_route.py
"""

import time

from eulerlab import a_part, det_at, det_bareiss, det_Mnr, f_at, reconstruct_a
from eulerlab.qanalog import int_trim


def at(poly, r):
    """A polynomial in (t, r) at integer r, as int coefficients in t."""
    return tuple(int_trim(int(c) for c in poly.subs({"r": r}).to_dense("t")))


print("determinants (rational coefficients in r, all arithmetic exact):")
for n in range(4):
    print(f"  n={n}: {det_Mnr(n).text()}")

print()
print("Bareiss over Z[t] at integer r vs the recurrence it solves:")
for n in range(8):
    same = all(det_at(n, r) == f_at(n, r) for r in range(n + 1))
    print(f"  n={n}, r=0..{n}: {'ok' if same else 'MISMATCH'}")

print()
print("the Newton form through r = 0..n, two points further out:")
for n in range(8):
    same = all(at(det_Mnr(n), r) == f_at(n, r) for r in (n + 1, n + 2))
    print(f"  n={n}, r={n + 1},{n + 2}: {'ok' if same else 'MISMATCH'}")

print()
print("a zero pivot is swapped away, with the sign flip:")
print(f"  det [[0, 1], [1, 1 + t]] = {det_bareiss([[[], [1]], [[1], [1, 1]]])}")

print()
print("one Cramer determinant at r = n + 1 by Bareiss, as n grows:")
for n in (4, 7, 10, 13):
    t0 = time.perf_counter()
    det = det_at(n, n + 1)
    ms = 1000 * (time.perf_counter() - t0)
    print(f"  n={n}: {len(det)} coefficients in t, {ms:.1f}ms")

print()
print("rebuilding a_n from the determinant alone:")
for n in range(1, 8):
    got = reconstruct_a(n)
    want = a_part(n)
    print(f"  n={n}: {'matches enumeration' if got == want else 'MISMATCH'}")
print()
print(f"a_4 = {reconstruct_a(4).text()}")
