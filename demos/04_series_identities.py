"""Series-side identities, checked on integer coefficient lists.

Regrouping sum_n A_n(s,t) u**n / (1-s)**(n+1) by powers of s gives one
closed rational series per exponent r.  Its u**n coefficient must match
the direct resummation sum_j [s**j] A_n * C(n+r-j, n), and the companion
series built from the palindromic a-parts telescopes against it.
verify_foata checks all three statements with each side multiplied by
its denominator, so no division is needed, and returns each statement's
witnesses: an empty list means the statement holds.

Run:  python3 demos/04_series_identities.py
"""

from eulerlab import f_nkr, f_nkr_closed, verify_foata

print("series statements through u^K and s^K:")
for order in range(8):
    joint, a_part, telescope = verify_foata(order)
    print(f"  K={order}: joint={not joint} a-part={not a_part} "
          f"telescope={not telescope}")

print()
print("integer coefficients f(n,k,r) and the lattice closed form:")
for (n, k, r) in ((3, 1, 1), (3, 1, 2), (3, 2, 2), (5, 2, 4)):
    print(f"  f({n},{k},{r}) = {f_nkr(n, k, r)}  "
          f"closed form {f_nkr_closed(n, k, r)}")

# The closed form counts lattice points in a box whose coordinate sum
# falls in a window of r consecutive values.  The k = 0 slice is the
# closed simplex, so there the window factor has to be dropped; and
# swapping which index drives the window (the literal reading, which is
# the closed form with k and r exchanged) breaks the count outright.
print()
print("window subtleties on the boundary:")
print(f"  k=0 column: f(3,0,1) = {f_nkr(3, 0, 1)}; "
      f"a half-open window there would give 3")
print(f"  swapped-index reading at (3,1,2): {f_nkr_closed(3, 2, 1)} "
      f"(direct value {f_nkr(3, 1, 2)})")
