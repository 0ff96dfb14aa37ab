"""Difference sets in regularly acting groups and their developments.

A group acting regularly on the point set identifies points with group
elements; a k-subset is a (n, k, lambda) difference set when every
non-identity element has exactly lambda representations as a quotient of
two of its elements.  Developing the subset under the action yields a
symmetric design with the group as a point-regular automorphism group.
Point p stands for the element carrying 0 to p, so point 0 is the identity;
is_difference_set counts the quotients of one subset.

find_regular_subgroups recovers such actions inside a given automorphism
group by depth-first search over the elements mapping point 0 to each
successive uncovered point.  In a regular group every non-identity
element is fixed-point-free with all cycles of equal length, so candidates
are filtered to that shape before any closure is computed.
"""

from __future__ import annotations

from operator import eq
from typing import Iterable, Sequence

from .design import IncidenceStructure
from .perm import Perm, PermGroup


class BudgetExhausted(RuntimeError):
    """The subgroup search hit its node bound before finding anything."""


class RegularAction:
    """A group acting regularly; element_of[p] is the element taking 0 to p."""

    def __init__(self, group: PermGroup):
        if group.order() != group.degree:
            raise ValueError("group of order %d cannot act regularly on %d points"
                             % (group.order(), group.degree))
        if not group.is_regular():
            raise ValueError("group of order %d is not regular on %d points"
                             % (group.order(), group.degree))
        self.group = group
        self.element_of = {g[0]: g for g in group.iter_elements()}

    @classmethod
    def from_group(cls, group: PermGroup) -> "RegularAction":
        return cls(group)

    @property
    def degree(self) -> int:
        return self.group.degree

    def __repr__(self) -> str:
        return "RegularAction(order %d)" % self.group.order()


def _quotient_rows(action: RegularAction, points: Sequence[int]) -> list[tuple[int, ...]]:
    """Row q is the image tuple of d_q^{-1}, which carries q to point 0;
    entry p names the quotient d_p * d_q^{-1} by the point it sends 0 to,
    as the action is regular."""
    return [action.element_of[q].inv().img for q in points]


def is_difference_set(action: RegularAction, d: Iterable[int],
                      lam: int) -> tuple[bool, list[tuple[Perm, int]]]:
    """Count quotients d_i * d_j^{-1}; report elements missing lambda.

    The report pairs each deviant non-identity group element with its
    actual representation count (empty exactly when d is a difference set).
    """
    points = sorted(set(d))
    if any(p not in action.element_of for p in points):
        raise ValueError("subset contains points outside the action")
    counts = [0] * action.degree
    for row in _quotient_rows(action, points):
        for p in points:
            counts[row[p]] += 1
    report = [(action.element_of[x], counts[x]) for x in range(action.degree)
              if x and counts[x] != lam]
    return (not report, report)


def develop_difference_set(action: RegularAction, d: Iterable[int]) -> IncidenceStructure:
    """One block per group element: the images of d under the action."""
    points = sorted(set(d))
    if not points:
        raise ValueError("cannot develop an empty subset")
    n = action.degree
    blocks = [tuple(sorted(action.element_of[x].apply_to_set(points)))
              for x in range(n)]
    return IncidenceStructure(n, blocks)


def _semiregular(p: Perm) -> bool:
    """Fixed-point-free with all cycles of one length, as is every
    non-identity element of a regular group.  The walk leaves at the first
    cycle whose length differs from that of the cycle through 0."""
    img = p.img
    if any(map(eq, img, range(len(img)))):
        return False
    seen = [False] * len(img)
    length = 0
    for start in range(len(img)):
        if not seen[start]:
            x, m = start, 0
            while not seen[x]:
                seen[x] = True
                x = img[x]
                m += 1
            if length and m != length:
                return False
            length = m
    return length > 0


def find_regular_subgroups(group: PermGroup, limit: int = 1,
                           budget: int = 100_000) -> list[RegularAction]:
    """Up to `limit` regular subgroups of a transitive group, depth-first.

    Each regular subgroup contains exactly one element sending point 0 to
    any given point, so extending by the least uncovered point
    visits every regular subgroup along a unique path; the enumeration
    order is therefore deterministic.  `budget` bounds the number of
    subgroup closures computed.  An empty result means none exist; running
    out of budget before anything is found raises BudgetExhausted.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = group.degree
    if not group.is_transitive():
        raise ValueError("regular subgroups require a transitive overgroup")
    ident = Perm.identity(n)

    # one witness mapping 0 to each point
    reps: dict[int, Perm] = {0: ident}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = g[x]
            if y not in reps:
                reps[y] = reps[x] * g
                frontier.append(y)

    stab = sorted(group.point_stabilizer(0).iter_elements(),
                  key=lambda p: p.img)

    points = range(n)

    def closure(gens: Sequence[Perm]) -> set[Perm] | None:
        # abandon as soon as the subgroup exceeds n elements or an element
        # acquires a fixed point; survivors are semiregular of order <= n
        elems = {ident}
        queue = [ident]
        while queue:
            x = queue.pop()
            for g in gens:
                y = x * g
                if y not in elems:
                    if len(elems) >= n:
                        return None
                    if any(map(eq, y.img, points)):
                        return None
                    elems.add(y)
                    queue.append(y)
        return elems

    found: list[RegularAction] = []
    nodes = 0

    def dfs(gens: list[Perm], elems: set[Perm]) -> None:
        nonlocal nodes
        if len(elems) == n:
            found.append(RegularAction.from_group(PermGroup(gens, n)))
            return
        covered = {h[0] for h in elems}
        target = min(x for x in range(n) if x not in covered)
        base_rep = reps[target]
        for s in stab:
            cand = s * base_rep
            if not _semiregular(cand):
                continue
            # products with current generators also lie in the subgroup
            if any(not _semiregular(g * cand) or not _semiregular(cand * g) for g in gens):
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(
                    "no regular subgroup found within %d closure nodes" % budget)
            # closure admits no fixed point: semiregular, so its order divides n
            new = closure(gens + [cand])
            if new is None:
                continue
            dfs(gens + [cand], new)
            if len(found) >= limit:
                return

    try:
        dfs([], {ident})
    except BudgetExhausted:
        if not found:
            raise
    return found
