"""A small DPLL solver with two watched literals, built for model
enumeration over the cell variables of a fiber encoding.

Branching is restricted to a caller-given decision order (the cell
bits); Tseitin auxiliaries are functions of their inputs, so unit
propagation finishes every total assignment.  ``next_model`` is a
resumable depth-first search: after a model is returned the caller may
add a blocking clause and call ``next_model`` again, and the search
continues from where it stopped instead of restarting, so enumerating a
fiber costs one tree traversal overall.  The search tries the true
branch first and follows the decision order, so projections onto a
prefix of that order come out in true-first lexicographic order,
whatever order propagation assigns variables in.

Values and watch lists are indexed by literal: ``val[lit]`` is 1 when
``lit`` is true, -1 when false and 0 when unassigned, and a negative
literal indexes from the end of the list (size 2n + 1).

A clause added at a model that falsifies it is handled by two rules.
Let d be the trail position of its deepest-assigned literal.

* Every decision frame opened after d lies below all of the clause's
  literals, so every branch still untried under such a frame keeps the
  clause false: those frames are marked exhausted.  This is what makes
  each projection come out once even when the search had to decide
  variables outside the sampling set.
* Every remaining untried frame is flipped before the search ends, and
  each later branch lies under one such flip.  If every untried frame's
  literal appears negated in the clause, each flip makes the clause
  true for its whole subtree, so the clause can never propagate or
  conflict and it is not installed.  A blocking clause over a prefix of
  the decision order (a negated projection) is always of this kind, so
  projected enumeration stores no clause at all.

Any other clause is installed watching its two deepest-assigned
literals.  The flip that follows unassigns at least the deepest one,
and a watched literal that becomes false always visits its clause, so
no later model can falsify it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = ["Solver", "projected_models"]


class Solver:
    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Sequence[int]],
        decision_vars: Sequence[int] | None = None,
    ):
        self.num_vars = num_vars
        self.val = [0] * (2 * num_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.trail: list[int] = []
        self.clauses: list[list[int]] = []  # installed clauses of two or more literals
        self.prop_head = 0
        self.failed = False
        # decision frames: [lit, trail position, scan cursor, tried_both,
        # cursor at creation]; the creation cursor is restored on flip
        # because the scan cursor may have advanced past variables that
        # the backtrack unassigns again
        self.frames: list[list] = []
        self.root_cursor = 0
        if decision_vars is None:
            order = list(range(1, num_vars + 1))
        else:
            order = list(decision_vars)
            seen = set(order)
            order.extend(v for v in range(1, num_vars + 1) if v not in seen)
        self.order = order
        self._check(order)
        self._at_model = False
        self._exhausted = False
        for cl in clauses:
            self._install(self._check(list(dict.fromkeys(cl))))

    def _check(self, lits: list[int]) -> list[int]:
        n = self.num_vars
        for lit in lits:
            if not (lit and -n <= lit <= n):
                raise ValueError(f"literal {lit} is outside variables 1..{n}")
        return lits

    def _assign(self, lit: int) -> None:
        self.val[lit] = 1
        self.val[-lit] = -1
        self.trail.append(lit)

    def _install(self, cl: list[int]) -> None:
        if any(-lit in cl for lit in cl):
            return  # tautology
        if not cl:
            self.failed = True
            return
        if len(cl) == 1:
            value = self.val[cl[0]]
            if value < 0:
                self.failed = True
            elif value == 0:
                self._assign(cl[0])
            return
        self.clauses.append(cl)
        self.watches[cl[0]].append(cl)
        self.watches[cl[1]].append(cl)

    # ---- propagation ----

    def _propagate(self) -> bool:
        """Exhaust the unit-propagation queue; False on conflict."""
        val = self.val
        trail = self.trail
        watches = self.watches
        head = self.prop_head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            i = 0
            end = len(ws)
            while i < end:
                cl = ws[i]
                other = cl[0]
                if other == false_lit:
                    other = cl[1]
                    cl[0] = other
                    cl[1] = false_lit
                if val[other] > 0:
                    i += 1
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if val[lk] >= 0:
                        cl[1] = lk
                        cl[k] = false_lit
                        watches[lk].append(cl)
                        end -= 1
                        ws[i] = ws[end]
                        ws.pop()
                        break
                else:
                    if val[other] < 0:
                        self.prop_head = head
                        return False  # conflict
                    val[other] = 1
                    val[-other] = -1
                    trail.append(other)
                    i += 1
        self.prop_head = head
        return True

    # ---- search ----

    def _decide(self) -> bool:
        """Open a new decision frame on the next unassigned variable in
        the branching order; False when everything is assigned."""
        frames = self.frames
        cursor = frames[-1][2] if frames else self.root_cursor
        order = self.order
        val = self.val
        end = len(order)
        while cursor < end and val[order[cursor]]:
            cursor += 1
        if frames:
            frames[-1][2] = cursor
        else:
            self.root_cursor = cursor
        if cursor == end:
            return False
        lit = order[cursor]  # try positive branch first
        frames.append([lit, len(self.trail), cursor + 1, False, cursor + 1])
        self._assign(lit)
        return True

    def _backtrack_flip(self) -> bool:
        """Undo to the deepest frame with an untried branch and flip it;
        False when the tree is exhausted."""
        val = self.val
        trail = self.trail
        frames = self.frames
        while frames:
            frame = frames[-1]
            start = frame[1]
            for lit in trail[start:]:
                val[lit] = 0
                val[-lit] = 0
            del trail[start:]
            self.prop_head = start
            if frame[3]:
                frames.pop()
                continue
            frame[0] = -frame[0]
            frame[2] = frame[4]
            frame[3] = True
            self._assign(frame[0])
            return True
        return False

    def next_model(self) -> list[int] | None:
        """The next satisfying assignment as a literal list over all
        variables, or None when the search space is exhausted."""
        if self.failed or self._exhausted:
            return None
        if self._at_model:
            self._at_model = False
            if not self._backtrack_flip():
                self._exhausted = True
                return None
        while True:
            if not self._propagate():
                if not self._backtrack_flip():
                    self._exhausted = True
                    return None
                continue
            if not self._decide():
                self._at_model = True
                val = self.val
                return [v if val[v] > 0 else -v for v in range(1, self.num_vars + 1)]

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause between models (typically a blocking clause).

        Only legal right after ``next_model`` returned a model.  A
        clause the model falsifies exhausts the frames opened below its
        deepest literal and is dropped when it can never fire again (see
        the module docstring); any other clause is installed watching
        its two deepest-assigned literals.
        """
        if not self._at_model:
            raise RuntimeError("add_clause is only supported at a model")
        cl = self._check(list(dict.fromkeys(lits)))
        val = self.val
        trail = self.trail
        exhausted: list[list] = []
        inert = False
        if all(val[lit] < 0 for lit in cl):
            on_trail = {-lit for lit in cl}
            deepest = len(trail) - 1
            while deepest >= 0 and trail[deepest] not in on_trail:
                deepest -= 1
            exhausted = [f for f in self.frames if f[1] > deepest]
            inert = all(f[3] or f[0] in on_trail for f in self.frames if f[1] <= deepest)
        if not inert and len(cl) < 2:
            raise ValueError("blocking clause needs at least two literals")
        for frame in exhausted:
            frame[3] = True
        if inert:
            return
        position = {abs(lit): i for i, lit in enumerate(trail)}
        cl.sort(key=lambda lit: position[abs(lit)], reverse=True)
        self._install(cl)


def projected_models(
    num_vars: int, clauses: Iterable[Sequence[int]], sampling: Sequence[int]
) -> Iterator[list[int]]:
    """Every model of the CNF projected onto the ``sampling`` variables,
    one per distinct projection, in true-first lexicographic order of
    the sampling sequence: each projection is blocked before the search
    resumes.  Branching follows the sampling order."""
    solver = Solver(num_vars, clauses, decision_vars=sampling)
    while (model := solver.next_model()) is not None:
        projected = [model[v - 1] for v in sampling]
        yield projected
        solver.add_clause([-lit for lit in projected])
