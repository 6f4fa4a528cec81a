"""Samplers that draw fiber elements from the CNF encoding.

The walker asks a sampler for batches of proposal tables.  Three
implementations are provided:

* :class:`ExternalSampler` shells out to an off-the-shelf CNF sampler
  (one solution per line of output), for running against tools like
  uniform-ish hashing samplers.  Its ``start`` launches a call and
  returns it running, so a caller can keep several calls in flight.
* :class:`InternalUniformSampler` enumerates the fiber once and draws
  exactly uniformly.  This is the reference sampler for tests and for
  instances small enough to enumerate.
* :class:`InternalBiasedSampler` draws from an exponentially tilted
  distribution, used to demonstrate what a non-uniform sampler does to
  the walk.

All samplers return tables validated against the fiber; an external
tool whose output is mostly garbage is reported as an error rather
than silently thinned.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import shlex
import signal
import string
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from .dpll import projected_models
from .encode import CNFEncoding
from .enumeration import (DEFAULT_CAP, FULL_FIBER_CAP, FiberTooLarge, enumerate_fiber,
                          normalized_exp)
from .models import FiberSpec, Table

__all__ = [
    "make_rng",
    "SEED_BOUND",
    "FiberSampler",
    "SamplerConfig",
    "KINDS",
    "build_sampler",
    "ExternalSampler",
    "InternalUniformSampler",
    "InternalBiasedSampler",
    "SamplerError",
    "SamplerLaunchError",
    "SamplerExitError",
    "SamplerTimeoutError",
    "SamplerOutputError",
    "SamplerValidityError",
    "enumerate_cnf_tables",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "FIBERWALK_SEED"

SEED_BOUND = 1 << 62  # seeds drawn for tables, runs and sampler batches lie below it


def make_rng(*entropy: int) -> np.random.Generator:
    """Counter-based generator keyed on a tuple of integers, so every
    component of a run derives its stream from (seed, role) without
    coupling."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


class SamplerError(RuntimeError):
    """Base class for sampler failures."""


class SamplerLaunchError(SamplerError):
    """The sampler executable could not be started."""


class SamplerExitError(SamplerError):
    """The sampler exited with a nonzero status."""


class SamplerTimeoutError(SamplerError):
    """The sampler did not finish within the configured timeout."""


class SamplerOutputError(SamplerError):
    """The sampler's output contained no parsable solutions, or was not
    text in the locale's encoding."""


class SamplerValidityError(SamplerError):
    """More than half of the returned solutions were not fiber elements."""


class FiberSampler(Protocol):
    """A sampler may also have ``start(encoding, count, seed)``, as
    :class:`ExternalSampler` does, returning a running call whose
    ``result()`` returns what ``sample`` would and whose ``close()``
    stops it; the walk then keeps the calls it needs in flight."""

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        """Draw ``count`` (or fewer, if the tool under-delivers)
        validated fiber elements."""
        ...


KINDS = ("external", "internal-uniform", "internal-biased")


@dataclass(frozen=True)
class SamplerConfig:
    """Declarative description of a sample source.

    ``command_template`` and ``timeout`` apply to the external kind,
    ``bias_strength`` to the internal-biased one; the other kinds
    ignore them.
    """

    kind: str = "internal-uniform"
    command_template: str | None = None
    timeout: float | None = None
    bias_strength: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "external":
            if not self.command_template:
                raise ValueError("external sampler needs a command_template")
            _parse_template(self.command_template)
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout:g}")
        if not math.isfinite(self.bias_strength):
            raise ValueError(f"bias_strength must be finite, got {self.bias_strength:g}")

    def summary(self) -> str:
        if self.kind == "external":
            return f"external({self.command_template})"
        if self.kind == "internal-biased":
            return f"internal-biased(strength={self.bias_strength})"
        return "internal-uniform"


def build_sampler(config: SamplerConfig) -> "FiberSampler":
    if config.kind == "external":
        return ExternalSampler(config.command_template, timeout=config.timeout)
    if config.kind == "internal-biased":
        return InternalBiasedSampler(strength=config.bias_strength)
    return InternalUniformSampler()


def _parse_template(command: str) -> tuple[list[str], set[str]]:
    """A command template's arguments, split as a shell would, and its
    placeholders, refusing any but {cnf}, {count} and {seed}, or a
    template shlex or str.format cannot read, when the sampler is
    configured rather than at its first call; a format spec its value
    cannot take, such as {cnf:d}, too."""
    def fields(text: str) -> list[str]:  # a format spec may hold placeholders too
        return [n for _, name, spec, _ in string.Formatter().parse(text) if name is not None
                for n in (name, *fields(spec))]

    try:
        args = shlex.split(command)
        names = {n for arg in args for n in fields(arg)}
        bad = ", ".join(f"placeholder {{{n}}}" for n in sorted(names - {"cnf", "count", "seed"}))
        for arg in [] if bad else args:
            try:  # the largest seed a walk draws, which {seed:c} cannot take
                arg.format(cnf="fiber.cnf", count=1, seed=SEED_BOUND - 1)
            except (ValueError, OverflowError) as exc:
                bad = f"argument {arg!r}: {exc}"
    except ValueError as exc:  # an unclosed quote, or a single { or }
        bad = str(exc)
    if bad:
        raise ValueError(f"sampler command {command!r}: {bad}; only {{cnf}}, {{count}} "
                         "and {seed} are filled in, and literal braces are written {{ and }}")
    return args, names


def _parse_solutions(lines: Iterable[str]) -> list[list[int]]:
    """Solution literals from sampler output, given as the lines a text
    file yields: lines of integers terminated by 0, with or without a
    leading ``v``; 0 splits solutions even across lines.

    A sampler repeats lines, so each distinct line is converted once.
    A line holding exactly one solution, met with nothing pending,
    yields the list converted at its first occurrence and a copy of it
    at every repeat.  The output is read one line at a time, so
    neither it nor its repeated lines cost more memory than the
    solutions returned.  Each solution is a distinct list.
    """
    solutions: list[list[int]] = []
    pending: list[int] = []
    seen: dict[str, tuple[list[int] | None, list[int] | None]] = {}
    for line in lines:
        piece = line[:-1] if line.endswith("\n") else line
        if not piece:
            continue
        entry = seen.get(piece)
        repeat = entry is not None
        if not repeat:
            entry = seen[piece] = _line_literals(piece)
        solution, lits = entry
        if solution is not None:
            if pending:
                pending.extend(solution)
                solutions.append(pending)
                pending = []
            else:
                solutions.append(solution.copy() if repeat else solution)
            continue
        for lit in lits:
            if lit == 0:
                if pending:
                    solutions.append(pending)
                    pending = []
            else:
                pending.append(lit)
    if pending:
        solutions.append(pending)
    return solutions


def _line_literals(piece: str) -> tuple[list[int] | None, list[int] | None]:
    """``(solution, None)`` when a newline-free piece of sampler output
    holds exactly one 0-terminated solution, else ``(None, literals)``.
    The piece is split into lines as ``str.splitlines`` does; a banner
    or comment line, or one holding a token that is not an integer,
    adds no literals."""
    lits: list[int] = []
    for raw in piece.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "vV" and (len(line) == 1 or line[1].isspace()):
            line = line[1:]
        elif not (line[0].isdigit() or line[0] == "-"):
            continue  # banner/comment line
        try:
            lits.extend([int(t) for t in line.split()])
        except ValueError:
            continue
    if len(lits) > 1 and lits[-1] == 0 and lits.count(0) == 1:
        lits.pop()
        return lits, None
    return None, lits


def _fiber_member(encoding: CNFEncoding, lits: list[int]) -> Table | None:
    """The decoded table if ``lits`` encode a fiber element, else None."""
    try:
        table = encoding.decode(lits)
    except ValueError:
        return None
    return table if encoding.spec.contains(table) else None


@dataclass
class ExternalSampler:
    """Runs ``command`` with {cnf}, {count} and {seed} placeholders.

    A command without a {seed} placeholder gets the seed through the
    FIBERWALK_SEED environment variable instead.  Solutions failing the
    fiber membership check are dropped; more than 50% invalid is an
    error.  ``calls``, ``solutions`` and ``invalid`` count the launches,
    the parsed solutions and the dropped ones over the sampler's life.
    Each call writes the DIMACS text to a temporary file for {cnf} and
    removes it once the command has exited.  ``timeout`` counts from
    the call's launch.
    """

    command: str
    timeout: float | None = None
    calls: int = field(default=0, init=False)
    solutions: int = field(default=0, init=False)
    invalid: int = field(default=0, init=False)
    _argv: list[str] = field(init=False, repr=False, compare=False)
    _seed_env: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # split once, before filling in, so a path with spaces stays one argument
        self._argv, names = _parse_template(self.command)
        self._seed_env = "seed" not in names

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        if count <= 0:
            return []
        return self.start(encoding, count, seed).result()

    def start(self, encoding: CNFEncoding, count: int, seed: int) -> "_Call":
        """Write the DIMACS file and launch the command on it.  The
        returned call's ``result()`` waits for the command and returns
        what ``sample`` returns, or raises what it raises, a failed
        launch included; its ``close()`` kills the command and removes
        its files."""
        env = {**os.environ, SEED_ENV_VAR: str(seed)} if self._seed_env else None
        fd, path = tempfile.mkstemp(suffix=".cnf", prefix="fiber")
        try:
            with os.fdopen(fd, "w") as f:
                encoding.to_dimacs(f)
            argv = [arg.format(cnf=path, count=count, seed=seed) for arg in self._argv]
            call = _Call(self, encoding, argv, env, path)
        except BaseException:
            os.unlink(path)
            raise
        self.calls += 1
        return call

    def _members(self, encoding: CNFEncoding, solutions: list[list[int]]) -> list[Table]:
        """The fiber elements among a call's solutions, counted into the
        sampler's totals; an error when none or under half are."""
        if not solutions:
            raise SamplerOutputError("no valid samples: output held no solutions")
        # A sampler repeats solutions, so each distinct one is decoded
        # and checked once; repeats share the Table.
        members: dict[tuple[int, ...], Table | None] = {}
        tables = []
        invalid = 0
        for lits in solutions:
            key = tuple(lits)
            if key not in members:
                members[key] = _fiber_member(encoding, lits)
            table = members[key]
            if table is None:
                invalid += 1
            else:
                tables.append(table)
        self.solutions += len(solutions)
        self.invalid += invalid
        if not tables:
            raise SamplerValidityError(
                f"no valid samples: all {invalid} solutions failed fiber validation"
            )
        if invalid * 2 > len(solutions):
            raise SamplerValidityError(
                f"{invalid} of {len(solutions)} solutions are not fiber elements"
            )
        return tables


class _Call:
    """One launched call of an :class:`ExternalSampler`.  The command
    runs in a session of its own, so a kill reaches the processes it
    starts, and writes to unnamed temporary files rather than pipes, so
    a command that nobody waits on yet never blocks on a full pipe."""

    def __init__(self, sampler: ExternalSampler, encoding: CNFEncoding, argv: list[str],
                 env: dict[str, str] | None, path: str):
        self.sampler, self.encoding, self.path = sampler, encoding, path
        self.out = tempfile.TemporaryFile("w+")
        self.err = tempfile.TemporaryFile("w+")
        self.error: SamplerError | None = None
        self.proc: subprocess.Popen | None = None
        self.deadline = None if sampler.timeout is None else time.monotonic() + sampler.timeout
        try:
            self.proc = subprocess.Popen(argv, stdout=self.out, stderr=self.err, env=env,
                                         start_new_session=True)
        except OSError as exc:
            self.error = SamplerLaunchError(f"could not launch sampler: {exc}")
            self.close()

    def result(self) -> list[Table]:
        """Wait for the command, until the deadline at most, then parse,
        decode and validate its output."""
        try:
            if self.error is not None:
                raise self.error
            left = None if self.deadline is None else max(0.0, self.deadline - time.monotonic())
            try:
                code = _wait(self.proc, left)
            except subprocess.TimeoutExpired as exc:
                raise SamplerTimeoutError(
                    f"sampler timed out after {self.sampler.timeout}s"
                ) from exc
            if code != 0:
                self.err.seek(0)
                raise SamplerExitError(
                    f"sampler exited with status {code}: {self.err.read().strip()[:500]}"
                )
            self.out.seek(0)
            try:
                solutions = _parse_solutions(self.out)
            except UnicodeDecodeError as exc:
                raise SamplerOutputError(f"sampler output is not text in the locale's "
                                         f"encoding: {exc}") from exc
        finally:
            self.close()
        return self.sampler._members(self.encoding, solutions)

    def close(self) -> None:
        """Kill the command and what it started if it still runs, reap
        it, and remove the call's files; a second close does nothing."""
        if self.proc is not None and self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.out.close()
        self.err.close()
        if self.path is not None:
            os.unlink(self.path)
            self.path = None


def _wait(proc: subprocess.Popen, timeout: float | None) -> int:
    """``proc.wait(timeout)``, woken by the exit itself where the
    platform has process file descriptors; elsewhere a wait with a
    timeout polls, napping up to 50 ms at a time."""
    if timeout is not None and hasattr(os, "pidfd_open"):
        try:
            fd = os.pidfd_open(proc.pid)
        except OSError:  # a kernel or sandbox without pidfd_open
            pass
        else:
            try:
                if not select.select([fd], [], [], timeout)[0]:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
            finally:
                os.close(fd)
    return proc.wait(timeout)


@dataclass
class _EnumeratingSampler:
    """Draws element indices of the enumerated fiber from a law (None
    for uniform).  Keeps the last fiber's spec, law and tables, but not
    its enumeration, so that one ends with its caller's; draws
    reference those tables rather than copying them.  Fibers past
    ``FULL_FIBER_CAP`` elements raise FiberTooLarge."""

    _fiber: tuple[FiberSpec, np.ndarray | None, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _law(self, spec: FiberSpec, cells: np.ndarray) -> np.ndarray | None:
        return None

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        spec = encoding.spec
        if self._fiber is None or self._fiber[0] != spec:
            enum = enumerate_fiber(spec, cap=FULL_FIBER_CAP).require_complete()
            # its tables as an object array, gathered by index without an int per draw
            tables = np.fromiter(enum.elements, dtype=object, count=len(enum))
            self._fiber = (spec, self._law(spec, enum.cells), tables)
        _, probs, tables = self._fiber
        if not len(tables):
            raise SamplerOutputError("fiber is empty")
        idx = make_rng(seed).choice(len(tables), size=count, p=probs)
        return tables[idx].tolist()


class InternalUniformSampler(_EnumeratingSampler):
    """Exactly uniform over the fiber, by enumerate-then-draw."""


@dataclass
class InternalBiasedSampler(_EnumeratingSampler):
    """Exponentially tilted draw: weight exp(strength * u_first), where
    u_first is the first free cell.  strength = 0 recovers uniform."""

    strength: float = SamplerConfig.bias_strength

    def _law(self, spec: FiberSpec, cells: np.ndarray) -> np.ndarray:
        zeros = spec.zero_set()
        first = next((j for j in range(spec.d) if j not in zeros), None)
        if first is None:
            raise ValueError("every cell is a structural zero")
        return normalized_exp(self.strength * cells[:, first].astype(float))


def enumerate_cnf_tables(encoding: CNFEncoding, cap: int = DEFAULT_CAP) -> list[Table]:
    """All fiber elements by CNF model enumeration with blocking
    clauses: the solver-side route, matched against direct enumeration
    in the bijection checks.  Raises :class:`FiberTooLarge` past the
    cap."""
    tables: list[Table] = []
    for model in projected_models(
        encoding.num_vars, encoding.clauses, encoding.sampling_vars
    ):
        if len(tables) >= cap:
            raise FiberTooLarge(f"model count exceeds cap of {cap}")
        tables.append(encoding.decode(model))
    return tables
