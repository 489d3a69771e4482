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

from eulerlab import (a_part, build_matrix, det_at, det_bareiss, det_cofactor,
                      det_Mnr, f_at, reconstruct_a)
from eulerlab.qanalog import int_trim


def at(poly, r):
    """A polynomial in (t, r) at integer r, as int coefficients in t."""
    return int_trim(int(c) for c in poly.subs({"r": r}).to_dense("t"))


print("determinants (rational coefficients in r, all arithmetic exact):")
for n in range(4):
    print(f"  n={n}: {det_Mnr(n).text()}")

print()
print("Bareiss over Z[t] at integer r vs the recurrence it solves:")
for n in range(8):
    same = all(det_at(n, r) == f_at(n, r) for r in range(n + 1))
    print(f"  n={n}, r=0..{n}: {'ok' if same else 'MISMATCH'}")

print()
print("integer Bareiss vs cofactor expansion of the (t, r) matrix, at r = 2:")
for n in range(5):
    m = build_matrix(n)
    ints = [[at(e, 2) for e in row] for row in m]
    t0 = time.perf_counter()
    fast = det_bareiss(ints)
    t1 = time.perf_counter()
    slow = at(det_cofactor(m), 2)
    t2 = time.perf_counter()
    print(f"  n={n}: equal={fast == slow}  "
          f"bareiss {1000 * (t1 - t0):.1f}ms, cofactor {1000 * (t2 - t1):.1f}ms")

print()
print("rebuilding a_n from the determinant alone:")
for n in range(1, 8):
    got = reconstruct_a(n)
    want = a_part(n)
    print(f"  n={n}: {'matches enumeration' if got == want else 'MISMATCH'}")
print()
print(f"a_4 = {reconstruct_a(4).text()}")
