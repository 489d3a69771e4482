"""Build the joint descent/excedance polynomials and poke at them.

Run:  python3 demos/01_joint_distribution.py
"""

from math import factorial

from eulerlab import classic_eulerian, eulerian_st, fubini_number
from eulerlab.perms import stats

print("joint polynomials A_n(s, t), s marks descents, t marks excedances")
for n in range(1, 6):
    print(f"  n={n}:  {eulerian_st(n).text()}")

print()
print("a single permutation and its statistics:")
perm = (2, 4, 1, 3)
st = stats(perm)
print(f"  {perm}: des={st.des} exc={st.exc} fix={st.fix} maj={st.maj}")

print()
print("both marginals collapse to the same classic row (equidistribution):")
for n in range(1, 8):
    des_row = [int(c) for c in classic_eulerian(n, "des").to_dense("x")]
    exc_row = [int(c) for c in classic_eulerian(n, "exc").to_dense("x")]
    tag = "ok" if des_row == exc_row else "MISMATCH"
    print(f"  n={n}: {des_row} {tag}")

print()
print("specializing (s, t) = (2, 1) counts ordered set partitions:")
for n in range(1, 8):
    via_poly = eulerian_st(n).evaluate({"s": 2, "t": 1})
    print(f"  n={n}: {via_poly}  (reference {fubini_number(n)}, "
          f"n! = {factorial(n)})")
