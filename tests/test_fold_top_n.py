"""The fold at the top of its range, against pinned bytes and fold-free oracles.

The enumeration oracle of ``test_distributions`` stops at n = 8.  Above
it the builders are held to the sha256 of their canonical JSON, recorded
from the used-set fold that the rank-state fold replaced, and to counts
that come from recurrences and closed forms rather than from any fold.
"""

from hashlib import sha256
from math import factorial

import pytest

from eulerlab import distributions
from eulerlab.distributions import (classic_eulerian, derangement_lhs,
                                    derangement_poly, eulerian_st, trivariate)
from eulerlab.mpoly import MPoly
from eulerlab.qanalog import subfactorial

_BUILDERS = {
    "des_exc": eulerian_st,
    "classic_eulerian des": lambda n: classic_eulerian(n, "des"),
    "classic_eulerian exc": lambda n: classic_eulerian(n, "exc"),
    "derangement": derangement_poly,
    "trivariate": trivariate,
    "derangement_refined": derangement_lhs,
}

# sha256 of ``dumps()``.  The des and exc rows are one Eulerian row.
_DIGESTS = {
    ("des_exc", 12):
        "a8816488378f008683d981d10cad6a7d12caba102b48f5362c1a24b41274b030",
    ("classic_eulerian des", 12):
        "123f9828789ac0b156731eecd02c7a15ba28764f4417e9daf234688f2adf6078",
    ("classic_eulerian exc", 12):
        "123f9828789ac0b156731eecd02c7a15ba28764f4417e9daf234688f2adf6078",
    ("derangement", 12):
        "22f8f8347e790abc3f2b012db395c6f08807f57cef1925274f3e2be0b6270f14",
    ("trivariate", 12):
        "7f57886c852fc824f290055b07e3058509c5b10145a799ac37b9e95c2514ed5c",
    ("derangement_refined", 12):
        "afbe7e33b2bb75d39ae796ccdc2bef9cd0dd0d4dbde79380bf7a879bcb13e6ef",
    ("des_exc", 13):
        "edee830bbbbf61bc5f090e4c3cdd6ff413b783f0b4fe6dc91f712b3beff8820b",
    ("classic_eulerian des", 13):
        "df9c7b6466e2334db3d424111ca25b68a8b613d3f76939af24d0f133921b578f",
    ("classic_eulerian exc", 13):
        "df9c7b6466e2334db3d424111ca25b68a8b613d3f76939af24d0f133921b578f",
    ("derangement", 13):
        "2a89437dfcf28a43ca56143013844cc856f054421244c45c53adddb90dbd3986",
    ("trivariate", 13):
        "aeca83c220475d1a9987af6212719b87092d55ebf3d5b223ca88c55a08688128",
    ("derangement_refined", 13):
        "3933212bd8f0b12b9e75433a96c809b21650841a7377be240c0a8b985b606e9f",
}

_XI_12_DIGESTS = {
    1: "eefceaeb0de2cc2df0d4a61ae99d12ce4f9a7714aef5809a5f927753f6dcd516",
    2: "aa526ed6f1eae55fe2de64fdd6e86fdf43c68e69d10eaa34cd7a143390136573",
    3: "e03293447e98cf5d8046639f2c03caac4240897d1a817673518b677a50afe177",
    4: "db1206f436a1122898f7f107ca0fb978302c061b53f9dff8d5e52f8bd0577ec9",
    5: "800d4c31fcd83f048c4fb595226c0ea046945a9c6ef2fab54e883f9fc4fb68cb",
    6: "8ffdb28b00d326174f39f68da74e1f7d6c78ee9aa74c52392b768c6f1cf82685",
}


def _digest(poly):
    return sha256(poly.dumps().encode()).hexdigest()


@pytest.mark.parametrize("family, n", sorted(_DIGESTS))
def test_top_n_bytes_are_pinned(family, n):
    assert _digest(_BUILDERS[family](n)) == _DIGESTS[family, n]


def test_xi_slices_at_12_are_pinned():
    slices = distributions._xi_slices(12)  # one fold serves every slice
    assert {i: _digest(MPoly(("p", "q"), slices[i]))
            for i in range(1, 7)} == _XI_12_DIGESTS


def _eulerian_row(n):
    """A(n, k), k = 0..n-1, by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < m - 1 else 0)
               + (m - k) * (row[k - 1] if k else 0) for k in range(m)]
    return row


def _mahonian_row(n):
    """Coefficients of prod_{i=1..n} [i]_q, the major-index distribution."""
    row = [1]
    for i in range(1, n + 1):
        nxt = [0] * (len(row) + i - 1)
        for a, c in enumerate(row):
            for b in range(i):
                nxt[a + b] += c
        row = nxt
    return row


def _marginal(poly, names):
    """Coefficient list of the sum of the exponents of ``names``."""
    at = [poly.vars.index(name) for name in names]
    row: dict[int, int] = {}
    for exp, c in poly.terms.items():
        k = sum(exp[j] for j in at)
        row[k] = row.get(k, 0) + c
    return [row.get(k, 0) for k in range(max(row) + 1)]


def test_eulerian_row_oracle():
    assert _eulerian_row(1) == [1]
    assert _eulerian_row(4) == [1, 11, 11, 1]
    assert _mahonian_row(3) == [1, 2, 2, 1]


@pytest.mark.parametrize("n", range(9, 14))
def test_folds_against_fold_free_oracles(n):
    eulerian = _eulerian_row(n)
    joint = eulerian_st(n)
    assert _marginal(joint, ("s",)) == eulerian
    assert _marginal(joint, ("t",)) == eulerian
    assert classic_eulerian(n, "des").to_dense("x") == eulerian
    assert classic_eulerian(n, "exc").to_dense("x") == eulerian
    # q carries maj - exc, so maj is the sum of the t and q exponents
    refined = trivariate(n)
    assert _marginal(refined, ("t", "q")) == _mahonian_row(n)
    assert _marginal(refined, ("p",)) == eulerian
    assert _marginal(refined, ("t",)) == eulerian
    assert derangement_poly(n).evaluate({"x": 1}) == subfactorial(n)
    ones = {"t": 1, "p": 1, "q": 1}
    assert derangement_lhs(n).evaluate(ones) == subfactorial(n)
    assert sum(eulerian) == factorial(n)
    assert refined.evaluate(ones) == factorial(n)


def test_fold_is_exact_above_the_cap():
    # the fold sizes its tag from n, so past MAX_ENUM_N it still counts
    # right.  n = 17 is the first n whose descent count, up to 16, needs
    # a fifth bit.  About 1 s and 60 MB
    n = 17
    refined = distributions._trivariate_poly(n, False)
    assert _marginal(refined, ("p",)) == _eulerian_row(n)
    assert _marginal(refined, ("t", "q")) == _mahonian_row(n)
    assert refined.evaluate({"t": 1, "p": 1, "q": 1}) == factorial(n)
