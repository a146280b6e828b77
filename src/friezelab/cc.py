"""The cluster character of quiver representations and the tube-to-frieze
pipeline built on it.

For a representation M of an acyclic quiver with dimension vector m, the
character is

    X_M = prod_i x_i^(-m_i) * sum_e chi(Gr_e(M)) prod_i x_i^(A_i(e))

with A_i(e) = sum over arrows j->i of e_j plus sum over arrows i->j of
(m_j - e_j).  Specializing every x_i to 1 turns the quasi-simples of a tube
into a quiddity row, and the diamond rule grows the frieze from there.

The exponent rule above is one of the two sign conventions compatible with
the abstract cluster-character axioms; it is the one locked by the golden
test on the displayed dimension-(1,1,2,1,1) character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .chebyshev import chebyshev_S, chebyshev_S_values, chebyshev_T
from .errors import CrossCheckFailed
from .frieze import FriezePattern, Quiddity, generate
from .laurent import LaurentPoly
from .rep import DEFAULT_PRIMES, QuiverRep, grassmannian_table
from .seeds import variable_name


@dataclass(frozen=True)
class CCValue:
    laurent: LaurentPoly
    at_ones: int


def cc_map(rep: QuiverRep, primes: Sequence[int] = DEFAULT_PRIMES) -> CCValue:
    """The cluster character of a representation, in the initial variables."""
    quiver = rep.quiver
    names = tuple(variable_name(l) for l in quiver.labels)
    table = grassmannian_table(rep, primes)
    arrows = quiver.arrows()
    total = LaurentPoly.zero(names)
    for e, chi in table:
        exps = [0] * quiver.m
        for t, h in arrows:
            exps[h] += e[t]
            exps[t] += rep.dims[h] - e[h]
        total = total + LaurentPoly.monomial(names, exps, chi)
    shift = LaurentPoly.monomial(names, tuple(-d for d in rep.dims))
    laurent = shift * total
    at_ones = laurent.at_ones()
    chi_sum = table.chi_sum()
    if at_ones != chi_sum:
        raise CrossCheckFailed("character at ones is %d, but the Euler characteristics sum to %d"
                               % (at_ones, chi_sum))
    return CCValue(laurent, at_ones)


def quiddity_from_tube(quiver, tube: Sequence[QuiverRep],
                       primes: Sequence[int] = DEFAULT_PRIMES) -> Quiddity:
    """Quiddity row of a tube: the all-ones characters of its quasi-simples."""
    for rep in tube:
        if rep.quiver != quiver:
            raise ValueError("tube representations must live on the given quiver")
    return Quiddity([cc_map(rep, primes).at_ones for rep in tube])


def frieze_from_tube(quiver, tube: Sequence[QuiverRep], depth: int,
                     primes: Sequence[int] = DEFAULT_PRIMES) -> FriezePattern:
    return generate(quiddity_from_tube(quiver, tube, primes), depth)


def homogeneous_powers(x1: int, kmax: int) -> list[int]:
    """Values u_0..u_kmax of the quasi-length recurrence
    u_{k+1} = x1*u_k - u_{k-1} with u_0 = 1, u_{-1} = 0 (and u_{-2} = -1):
    the second-kind Chebyshev values S_k(x1)."""
    return chebyshev_S_values(kmax, x1)


def growth_via_homogeneous(x1: int, k: int) -> int:
    """s_k = u_k - u_{k-2}, the growth coefficient from homogeneous data,
    certified against the first-kind value T_k(x1)."""
    if k < 1:
        raise ValueError("k must be positive")
    sk = chebyshev_S(k, x1) - chebyshev_S(k - 2, x1)
    want = chebyshev_T(k, x1)
    if sk != want:
        raise CrossCheckFailed("s_%d = %d from homogeneous data, but T_%d(%d) = %d"
                               % (k, sk, k, x1, want))
    return sk
