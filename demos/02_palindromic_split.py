"""Split each joint polynomial into its two palindromic halves.

Every polynomial f with deg_t(f) <= d is uniquely f = a + t*b with a
palindromic at ambient degree d and b palindromic at d - 1.  For the
joint polynomials the two halves are not independent: b_n is exactly
(s - 1) * a_{n-1}, so the whole family is driven by the a-parts alone.

Run:  python3 demos/02_palindromic_split.py
"""

from eulerlab import eulerian_st, sym_decompose, verify_thm20

for n in range(2, 6):
    dec = sym_decompose(eulerian_st(n), "t", n - 1)
    print(f"n={n}")
    print(f"  a = {dec.a.text()}")
    print(f"  b = {dec.b.text()}")

print()
print("recursion check (b_n against the previous a-part):")
for n in range(2, 10):
    witnesses = verify_thm20(n)
    print(f"  n={n}: {' '.join(witnesses) or 'ok'}")

print()
print("the s=2 table: the a-part of each row reappears as the b-part below")
prev = None
for n in range(1, 6):
    dec = sym_decompose(eulerian_st(n).subs({"s": 2}), "t", n - 1)
    a_row = [int(c) for c in dec.a.to_dense("t")]
    b_row = [] if dec.b.is_zero() else [int(c) for c in dec.b.to_dense("t")]
    chained = "(chains)" if prev is not None and b_row == prev else ""
    print(f"  n={n}: a={a_row} b={b_row} {chained}")
    prev = a_row
