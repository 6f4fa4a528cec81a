"""Samplers that draw fiber elements from the CNF encoding.

The walker asks a sampler for batches of proposal tables.  Three
implementations are provided:

* :class:`ExternalSampler` shells out to an off-the-shelf CNF sampler
  (one solution per line of output), for running against tools like
  uniform-ish hashing samplers.
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

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .dpll import projected_models
from .encode import CNFEncoding
from .enumeration import FiberTooLarge, enumerate_fiber
from .models import FiberSpec, Table

__all__ = [
    "make_rng",
    "FiberSampler",
    "SamplerConfig",
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
    """The sampler's output contained no parsable solutions."""


class SamplerValidityError(SamplerError):
    """More than half of the returned solutions were not fiber elements."""


class FiberSampler(Protocol):
    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        """Draw ``count`` (or fewer, if the tool under-delivers)
        validated fiber elements."""
        ...


KINDS = ("external", "internal-uniform", "internal-biased")


@dataclass(frozen=True)
class SamplerConfig:
    """Declarative description of a sample source.

    ``epsilon`` and ``eta`` record the tolerance the external tool
    advertises (per-solution multiplicative bound and total-variation
    budget respectively); they document the source and are not
    enforced, since a black-box sampler cannot be forced to honor them.
    ``eta`` follows the unnormalized L1 convention, so it lives in
    [0, 2]; halve it to compare against a TV distance.
    """

    kind: str = "internal-uniform"
    command_template: str | None = None
    timeout: float | None = None
    epsilon: float = 0.0
    eta: float = 0.0
    bias_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "external" and not self.command_template:
            raise ValueError("external sampler needs a command_template")
        if self.epsilon < 0 or self.eta < 0:
            raise ValueError("epsilon and eta must be nonnegative")

    def summary(self) -> str:
        if self.kind == "external":
            return f"external({self.command_template})"
        if self.kind == "internal-biased":
            return f"internal-biased(strength={self.bias_strength})"
        return "internal-uniform"


def build_sampler(config: SamplerConfig, cap: int = 1_000_000) -> "FiberSampler":
    if config.kind == "external":
        return ExternalSampler(config.command_template, timeout=config.timeout)
    if config.kind == "internal-biased":
        return InternalBiasedSampler(strength=config.bias_strength, cap=cap)
    return InternalUniformSampler(cap=cap)


def _parse_solutions(text: str) -> list[list[int]]:
    """Solution literals from sampler output: lines of integers
    terminated by 0, with or without a leading ``v``; 0 splits
    solutions even across lines."""
    solutions: list[list[int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "vV" and (len(line) == 1 or line[1].isspace()):
            line = line[1:]
        elif not (line[0].isdigit() or line[0] == "-"):
            continue  # banner/comment line
        try:
            lits = [int(t) for t in line.split()]
        except ValueError:
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
    """

    command: str
    timeout: float | None = None
    calls: int = field(default=0, init=False)
    solutions: int = field(default=0, init=False)
    invalid: int = field(default=0, init=False)

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        if count <= 0:
            return []
        fd, path = tempfile.mkstemp(suffix=".cnf", prefix="fiber")
        try:
            with os.fdopen(fd, "w") as f:
                encoding.to_dimacs(f)
            return self.sample_file(encoding, path, count, seed)
        finally:
            os.unlink(path)

    def sample_file(
        self, encoding: CNFEncoding, cnf_path: str, count: int, seed: int
    ) -> list[Table]:
        """Like sample(), but against a CNF file already on disk."""
        cmd = self.command.format(cnf=cnf_path, count=count, seed=seed)
        env = None
        if "{seed}" not in self.command:
            env = dict(os.environ)
            env[SEED_ENV_VAR] = str(seed)
        self.calls += 1
        try:
            proc = subprocess.run(
                shlex.split(cmd),
                capture_output=True,
                text=True,
                timeout=self.timeout,
                env=env,
            )
        except OSError as exc:
            raise SamplerLaunchError(f"could not launch sampler: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SamplerTimeoutError(
                f"sampler timed out after {self.timeout}s"
            ) from exc
        if proc.returncode != 0:
            raise SamplerExitError(
                f"sampler exited with status {proc.returncode}: "
                f"{proc.stderr.strip()[:500]}"
            )
        solutions = _parse_solutions(proc.stdout)
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


@dataclass
class InternalUniformSampler:
    """Exactly uniform over the fiber, by enumerate-then-draw.

    The enumeration is cached per fiber, and draws reference the cached
    tables rather than copying them.
    """

    cap: int = 1_000_000
    _cache: dict[FiberSpec, tuple[Table, ...]] = field(default_factory=dict, repr=False)

    def _elements(self, spec: FiberSpec) -> tuple[Table, ...]:
        if spec not in self._cache:
            enum = enumerate_fiber(spec, cap=self.cap).require_complete()
            self._cache[spec] = enum.elements
        return self._cache[spec]

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        elements = self._elements(encoding.spec)
        if not elements:
            raise SamplerOutputError("fiber is empty")
        rng = make_rng(seed)
        idx = rng.integers(len(elements), size=count)
        return [elements[int(i)] for i in idx]


@dataclass
class InternalBiasedSampler:
    """Exponentially tilted draw: weight exp(strength * u_first), where
    u_first is the first free cell.  strength = 0 recovers uniform."""

    strength: float = 1.0
    cap: int = 1_000_000
    _cache: dict[FiberSpec, tuple[tuple[Table, ...], np.ndarray]] = field(
        default_factory=dict, repr=False
    )

    def _dist(self, spec: FiberSpec) -> tuple[tuple[Table, ...], np.ndarray]:
        if spec not in self._cache:
            elements = enumerate_fiber(spec, cap=self.cap).require_complete().elements
            zeros = spec.zero_set()
            first = next((j for j in range(spec.d) if j not in zeros), None)
            if first is None:
                raise ValueError("every cell is a structural zero")
            logw = np.array(
                [self.strength * u.cells[first] for u in elements], dtype=float
            )
            logw -= logw.max() if len(logw) else 0.0
            w = np.exp(logw)
            self._cache[spec] = (elements, w / w.sum())
        return self._cache[spec]

    def sample(self, encoding: CNFEncoding, count: int, seed: int) -> list[Table]:
        elements, probs = self._dist(encoding.spec)
        if not len(elements):
            raise SamplerOutputError("fiber is empty")
        rng = make_rng(seed)
        idx = rng.choice(len(elements), size=count, p=probs)
        return [elements[int(i)] for i in idx]


def enumerate_cnf_tables(encoding: CNFEncoding, cap: int = 10_000_000) -> list[Table]:
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
