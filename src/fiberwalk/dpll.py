"""A small DPLL solver with two watched literals, built for model
enumeration over the cell variables of a fiber encoding.

Branching is restricted to a caller-given decision order (the cell
bits); Tseitin auxiliaries are functions of their inputs, so unit
propagation finishes every total assignment.  ``next_model`` is a
resumable depth-first search: after a model is returned the caller may
add a blocking clause and call ``next_model`` again, and the search
continues from where it stopped instead of restarting, so enumerating a
fiber costs one tree traversal overall.

Blocking clauses are installed watching their two deepest-assigned
literals; the chronological backtrack that follows a model unassigns at
least the deepest one, which keeps the watch scheme sound (a clause is
always examined before it could be silently falsified).
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
        self.assign = [0] * (num_vars + 1)  # 0 unassigned, else +/-1
        self.trail: list[int] = []
        self.trail_pos = [0] * (num_vars + 1)
        self.watches: dict[int, list[int]] = {}
        self.clauses: list[list[int]] = []
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
        self._at_model = False
        self._exhausted = False
        for cl in clauses:
            self._install(list(cl))

    # ---- assignment plumbing ----

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int) -> bool:
        """Assign lit true; False on immediate contradiction."""
        val = self._value(lit)
        if val > 0:
            return True
        if val < 0:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.trail_pos[var] = len(self.trail)
        self.trail.append(lit)
        return True

    def _install(self, cl: list[int]) -> None:
        cl = list(dict.fromkeys(cl))  # drop duplicate literals
        if any(-lit in cl for lit in cl):
            return  # tautology
        if not cl:
            self.failed = True
            return
        if len(cl) == 1:
            if not self._enqueue(cl[0]):
                self.failed = True
            return
        idx = len(self.clauses)
        self.clauses.append(cl)
        self.watches.setdefault(cl[0], []).append(idx)
        self.watches.setdefault(cl[1], []).append(idx)

    # ---- propagation ----

    def _propagate(self) -> bool:
        """Exhaust the unit-propagation queue; False on conflict."""
        while self.prop_head < len(self.trail):
            lit = self.trail[self.prop_head]
            self.prop_head += 1
            false_lit = -lit
            ws = self.watches.get(false_lit)
            if not ws:
                continue
            i = 0
            while i < len(ws):
                ci = ws[i]
                cl = self.clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                other = cl[0]
                if self._value(other) > 0:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if self._value(lk) >= 0:
                        cl[1], cl[k] = lk, false_lit
                        self.watches.setdefault(lk, []).append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self._value(other) < 0:
                    return False  # conflict
                self._enqueue(other)
                i += 1
        return True

    # ---- search ----

    def _decide(self) -> bool:
        """Open a new decision frame on the next unassigned variable in
        the branching order; False when everything is assigned."""
        cursor = self.frames[-1][2] if self.frames else self.root_cursor
        order = self.order
        while cursor < len(order) and self.assign[order[cursor]] != 0:
            cursor += 1
        if self.frames:
            self.frames[-1][2] = cursor
        else:
            self.root_cursor = cursor
        if cursor == len(order):
            return False
        lit = order[cursor]  # try positive branch first
        self.frames.append([lit, len(self.trail), cursor + 1, False, cursor + 1])
        self._enqueue(lit)
        return True

    def _backtrack_flip(self) -> bool:
        """Undo to the deepest frame with an untried branch and flip it;
        False when the tree is exhausted."""
        while self.frames:
            frame = self.frames[-1]
            for lit in reversed(self.trail[frame[1] :]):
                self.assign[abs(lit)] = 0
            del self.trail[frame[1] :]
            self.prop_head = frame[1]
            if frame[3]:
                self.frames.pop()
                continue
            frame[0] = -frame[0]
            frame[2] = frame[4]
            frame[3] = True
            self._enqueue(frame[0])
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
                return [v if self.assign[v] > 0 else -v for v in range(1, self.num_vars + 1)]

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause between models (typically a blocking clause).

        Only legal right after ``next_model`` returned a model: the two
        deepest-assigned literals become the watches.
        """
        if not self._at_model:
            raise RuntimeError("add_clause is only supported at a model")
        cl = list(dict.fromkeys(lits))
        if len(cl) < 2:
            raise ValueError("blocking clause needs at least two literals")
        cl.sort(key=lambda lit: self.trail_pos[abs(lit)], reverse=True)
        idx = len(self.clauses)
        self.clauses.append(cl)
        self.watches.setdefault(cl[0], []).append(idx)
        self.watches.setdefault(cl[1], []).append(idx)


def projected_models(
    num_vars: int, clauses: Iterable[Sequence[int]], sampling: Sequence[int]
) -> Iterator[list[int]]:
    """Every model of the CNF projected onto the ``sampling`` variables,
    one per distinct projection: each projection is blocked before the
    search resumes.  Branching follows the sampling order."""
    solver = Solver(num_vars, clauses, decision_vars=sampling)
    while (model := solver.next_model()) is not None:
        projected = [model[v - 1] for v in sampling]
        yield projected
        solver.add_clause([-lit for lit in projected])
