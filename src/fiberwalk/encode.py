"""CNF encoding of a fiber by bit-blasting the margin equations.

Every free cell gets a block of ``bits_per_cell`` boolean variables
(LSB first); each margin row A_i u = b_i becomes a shift-and-add
multiplication of the cell blocks by the constant coefficients, a
balanced tree of ripple-carry adders, and unit clauses pinning the sum
bits to the binary expansion of b_i.  Gates are Tseitin-transformed
(XOR 4 clauses, AND 3, OR 3) with constant folding, so satisfying
assignments are in bijection with fiber elements once projected to the
cell variables.

Structural-zero cells keep their variable block, pinned to zero by unit
clauses and left out of the adders.

Variable layout: cell j owns variables j*l+1 .. j*l+l, then one
always-true literal, then the Tseitin auxiliaries.  The sampling set
(``c ind`` lines in DIMACS output) is exactly the cell variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TextIO

from .models import FiberSpec, Table

__all__ = [
    "CNFEncoding",
    "encode_fiber",
    "cell_value_bound",
    "bit_width",
    "write_layout",
    "parse_dimacs",
]


def cell_value_bound(spec: FiberSpec) -> int:
    """Largest value any cell can take: max over positive entries of
    floor(b_i / A_ij)."""
    A = spec.matrix.entries
    best = 0
    for i in range(spec.matrix.rows):
        for j in spec.matrix.row_support[i]:
            best = max(best, spec.margins[i] // int(A[i, j]))
    return best


def bit_width(spec: FiberSpec) -> int:
    """Bits per cell: enough to represent every value a cell can take.

    One wider than the tightest power-of-two bound, so the cell bound
    itself is always representable; at least 1 even for all-zero
    margins.
    """
    return max(1, cell_value_bound(spec).bit_length())


class _Builder:
    """Tseitin clause builder over integer literals.

    ``true_lit`` is a dedicated variable pinned true, so wires are
    always literals and constants are just +/- true_lit.
    """

    def __init__(self, first_free_var: int):
        self.true_lit = first_free_var
        self.next_var = first_free_var + 1
        self.clauses: list[tuple[int, ...]] = [(self.true_lit,)]
        self.unsat = False

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def contradiction(self) -> None:
        self.unsat = True
        self.clauses.append((self.false_lit,))

    def xor(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == t:
            return -b
        if a == -t:
            return b
        if b == t:
            return -a
        if b == -t:
            return a
        if a == b:
            return -t
        if a == -b:
            return t
        z = self.fresh()
        self.clauses.extend(
            [(-a, -b, -z), (a, b, -z), (a, -b, z), (-a, b, z)]
        )
        return z

    def and_(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == t:
            return b
        if b == t:
            return a
        if a == -t or b == -t or a == -b:
            return -t
        if a == b:
            return a
        z = self.fresh()
        self.clauses.extend([(-z, a), (-z, b), (z, -a, -b)])
        return z

    def or_(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == -t:
            return b
        if b == -t:
            return a
        if a == t or b == t or a == -b:
            return t
        if a == b:
            return a
        z = self.fresh()
        self.clauses.extend([(z, -a), (z, -b), (-z, a, b)])
        return z

    def full_add(self, a: int, b: int, c: int) -> tuple[int, int]:
        """Sum and carry bits of a + b + c."""
        x = self.xor(a, b)
        s = self.xor(x, c)
        carry = self.or_(self.and_(a, b), self.and_(x, c))
        return s, carry

    def add_vectors(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """Ripple-carry sum of two LSB-first wire vectors."""
        f = self.false_lit
        n = max(len(xs), len(ys))
        carry = f
        out = []
        for p in range(n):
            a = xs[p] if p < len(xs) else f
            b = ys[p] if p < len(ys) else f
            s, carry = self.full_add(a, b, carry)
            out.append(s)
        out.append(carry)
        while len(out) > 1 and out[-1] == f:
            out.pop()
        return out

    def sum_tree(self, addends: list[list[int]]) -> list[int]:
        """Balanced pairwise reduction of many addends."""
        if not addends:
            return []
        layer = addends
        while len(layer) > 1:
            nxt = []
            for k in range(0, len(layer) - 1, 2):
                nxt.append(self.add_vectors(layer[k], layer[k + 1]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def equal_const(self, wires: Sequence[int], value: int) -> None:
        """Unit clauses pinning an LSB-first wire vector to a constant."""
        t = self.true_lit
        width = max(len(wires), value.bit_length())
        for p in range(width):
            bit = (value >> p) & 1
            w = wires[p] if p < len(wires) else -t
            if w == t or w == -t:
                if (w == t) != bool(bit):
                    self.contradiction()
            else:
                self.clauses.append((w,) if bit else (-w,))


@dataclass(frozen=True)
class CNFEncoding:
    """A fiber rendered as CNF, plus the cell-variable bookkeeping
    needed to decode models and encode tables."""

    spec: FiberSpec
    bits_per_cell: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    sampling_vars: tuple[int, ...]
    trivially_unsat: bool = False

    def cell_var(self, j: int, p: int) -> int:
        if not 0 <= p < self.bits_per_cell:
            raise ValueError(f"bit position {p} out of range")
        return j * self.bits_per_cell + p + 1

    def decode(self, model: Sequence[int]) -> Table:
        """Rebuild the table from a model given as a sequence of
        literals (sign = truth value); auxiliary literals are ignored.
        A model giving a cell variable both ways is refused."""
        l = self.bits_per_cell
        d = self.spec.d
        truth = {}
        for lit in model:
            v = abs(lit)
            if 1 <= v <= d * l and truth.setdefault(v, lit > 0) != (lit > 0):
                raise ValueError(f"model gives cell variable {v} both ways")
        cells = []
        for j in range(d):
            val = 0
            for p in range(l):
                var = j * l + p + 1
                if var not in truth:
                    raise ValueError(f"model does not assign cell variable {var}")
                if truth[var]:
                    val |= 1 << p
            cells.append(val)
        return Table(cells=tuple(cells), shape=self.spec.shape)

    def encode_table(self, u: Table) -> tuple[int, ...]:
        """The cell-variable literals describing a table."""
        l = self.bits_per_cell
        lits = []
        for j, c in enumerate(u.cells):
            if c >= (1 << l):
                raise ValueError(f"cell value {c} does not fit in {l} bits")
            for p in range(l):
                var = j * l + p + 1
                lits.append(var if (c >> p) & 1 else -var)
        return tuple(lits)

    @cached_property
    def _dimacs(self) -> str:
        l = self.bits_per_cell
        zeros = self.spec.zero_set()
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}", f"c {l} bits per cell, LSB first"]
        for j in range(self.spec.d):
            mark = " (structural zero)" if j in zeros else ""
            lines.append(f"c cell {j} vars {j * l + 1}..{j * l + l}{mark}")
        ids = list(self.sampling_vars)
        for k in range(0, len(ids), 10):
            lines.append("c ind " + " ".join(str(v) for v in ids[k : k + 10]) + " 0")
        lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in self.clauses)
        lines.append("")
        return "\n".join(lines)

    def to_dimacs(self, sink: TextIO) -> None:
        """Write the DIMACS text, rendered on the first call."""
        sink.write(self._dimacs)


def encode_fiber(spec: FiberSpec) -> CNFEncoding:
    """Bit-blast A u = b, u >= 0, u_S = 0 into CNF."""
    l = bit_width(spec)
    d = spec.d
    A = spec.matrix.entries
    zeros = spec.zero_set()

    builder = _Builder(first_free_var=d * l + 1)

    for s in sorted(zeros):
        for p in range(l):
            builder.clauses.append((-(s * l + p + 1),))

    for i in range(spec.matrix.rows):
        addends: list[list[int]] = []
        for j in spec.matrix.row_support[i]:
            if j in zeros:
                continue
            cell_bits = [j * l + p + 1 for p in range(l)]
            coeff = int(A[i, j])
            shift = 0
            while coeff:
                if coeff & 1:
                    addends.append([builder.false_lit] * shift + cell_bits)
                coeff >>= 1
                shift += 1
        total = builder.sum_tree(addends)
        builder.equal_const(total, spec.margins[i])

    return CNFEncoding(
        spec=spec,
        bits_per_cell=l,
        num_vars=builder.next_var - 1,
        clauses=tuple(builder.clauses),
        sampling_vars=tuple(range(1, d * l + 1)),
        trivially_unsat=builder.unsat,
    )


def write_layout(encoding: CNFEncoding, sink: TextIO) -> None:
    """Sidecar mapping cells to variable ids: one line per cell with
    the cell index followed by its l variable ids (LSB first);
    structural-zero cells carry a trailing ``zero`` marker."""
    l = encoding.bits_per_cell
    zeros = encoding.spec.zero_set()
    sink.write(f"# {l} bits per cell, LSB first; sampling set = cell vars\n")
    for j in range(encoding.spec.d):
        ids = " ".join(str(j * l + p + 1) for p in range(l))
        mark = " zero" if j in zeros else ""
        sink.write(f"{j} {ids}{mark}\n")


def parse_dimacs(source: TextIO):
    """Read a DIMACS CNF: returns (num_vars, clauses, sampling_vars).

    Accepts ``c ind`` sampling-set comments; other comments are
    skipped.  Used for round-trip checks and external-tool debugging.
    """
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    sampling: list[int] = []
    pending: list[int] = []
    for raw in source:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "ind":
                ids = [int(t) for t in parts[2:]]
                if ids and ids[-1] == 0:
                    ids.pop()
                sampling.extend(ids)
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
    if pending:
        raise ValueError("trailing literals without clause terminator")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if declared is not None and declared != len(clauses):
        raise ValueError(f"header declares {declared} clauses, found {len(clauses)}")
    return num_vars, tuple(clauses), tuple(sampling)
