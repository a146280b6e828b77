"""The cluster character of quiver representations and the tube-to-frieze
pipeline built on it.

For a representation M of an acyclic quiver with dimension vector m, the
character is

    X_M = prod_i x_i^(-m_i) * sum_e chi(Gr_e(M)) prod_i x_i^(A_i(e))

with A_i(e) = sum over arrows j->i of e_j plus sum over arrows i->j of
(m_j - e_j).  Specializing every x_i to 1 turns the quasi-simples of a tube
into a quiddity row, and the diamond rule grows the frieze from there.  At
all ones the character is the sum of the Euler characteristics chi(Gr_e(M)),
so the quiddity row is read from the Grassmannian table, with no Laurent
algebra.

The exponent rule above is one of the two sign conventions compatible with
the abstract cluster-character axioms; it is the one locked by the golden
test on the displayed dimension-(1,1,2,1,1) character.  It holds for acyclic
quivers only, so a quiver with an oriented cycle raises UnsupportedQuiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .chebyshev import first_kind, second_kind
from .errors import CrossCheckFailed, UnsupportedQuiver, integer
from .frieze import Quiddity
from .laurent import LaurentPoly
from .rep import QuiverRep, grassmannian_table
from .seeds import variable_name


@dataclass(frozen=True)
class CCValue:
    laurent: LaurentPoly
    at_ones: int


def _check_acyclic(quiver) -> None:
    if len(quiver.topological_order()) < quiver.m:
        raise UnsupportedQuiver("cluster characters need a quiver without oriented cycles")


def cc_map(rep: QuiverRep) -> CCValue:
    """The cluster character of a representation, in the initial variables."""
    quiver = rep.quiver
    _check_acyclic(quiver)
    names = tuple(variable_name(l) for l in quiver.labels)
    table = grassmannian_table(rep)
    arrows = quiver.arrows()
    terms: dict[tuple[int, ...], int] = {}
    for e, chi in table.items():
        exps = [-d for d in rep.dims]
        for t, h in arrows:
            exps[h] += e[t]
            exps[t] += rep.dims[h] - e[h]
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + chi
    laurent = LaurentPoly(names, terms)
    return CCValue(laurent, laurent.at_ones())


def quiddity_from_tube(quiver, tube: Sequence[QuiverRep]) -> Quiddity:
    """Quiddity row of a tube: the all-ones characters of its quasi-simples,
    each the sum of the Euler characteristics of its quiver Grassmannians."""
    _check_acyclic(quiver)
    for rep in tube:
        if rep.quiver != quiver:
            raise ValueError("tube representations must live on the given quiver")
    return Quiddity([sum(grassmannian_table(rep).values()) for rep in tube])


def homogeneous_growth(x1: int) -> Iterator[tuple[int, int]]:
    """(u_k, s_k) for k = 0, 1, 2, ...: the quasi-length values u_k and the
    growth coefficients s_k = u_k - u_{k-2} from homogeneous data, each s_k
    certified against the first-kind value T_k(x1).  Each recurrence runs
    once, and only the last three u values are kept."""
    x1 = integer(x1, name="x1")
    u = second_kind(x1)
    older, old = next(u), next(u)  # u_{-2}, u_{-1}
    for k, (uk, want) in enumerate(zip(u, first_kind(x1))):
        sk = uk - older
        if sk != want:
            raise CrossCheckFailed("s_%d = %d from homogeneous data, but T_%d(%d) = %d"
                                   % (k, sk, k, x1, want))
        yield uk, sk
        older, old = old, uk


def growth_via_homogeneous(x1: int, k: int) -> int:
    """s_k = u_k - u_{k-2}, certified as in homogeneous_growth."""
    k = integer(k, least=1, name="k")
    return next(islice(homogeneous_growth(x1), k, None))[1]
