import io
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import fiberwalk.enumeration as enumeration
from fiberwalk.enumeration import rho_weights
from fiberwalk.sampling import ExternalSampler

DATA = pathlib.Path(__file__).parent / "data"

# one line per acceptance criterion, printed after the run so the
# verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def reference_rho(fiber) -> dict[tuple[int, ...], float]:
    """rho(v) = (1/prod v_i!) / Z over a list of Tables, from the
    weights of their cells as one int64 array normalized by their sum:
    the formula ``FiberEnumeration.rho`` must match bit for bit."""
    ws = rho_weights(np.array([u.cells for u in fiber]))
    z = sum(ws)
    return {u.cells: w / z for u, w in zip(fiber, ws)}


def count_block_searches(mp) -> list:
    """Patch ``fiber_blocks`` through the MonkeyPatch ``mp`` to record
    the spec of every block search, in order."""
    calls, original = [], enumeration.fiber_blocks
    mp.setattr(enumeration, "fiber_blocks", lambda spec: calls.append(spec) or original(spec))
    return calls


class LiteralsEncoding:
    """An encoding for the external sampler's reader on which every
    solution is a fiber element and decodes to the tuple of its
    literals."""

    spec = SimpleNamespace(contains=lambda table: True)

    def decode(self, model) -> tuple[int, ...]:
        return tuple(model)


def read_literals(text: str) -> tuple[list[tuple[int, ...]], ExternalSampler]:
    """The solutions ``ExternalSampler`` reads from ``text``, each as the
    tuple of its literals, and the sampler that read them."""
    sampler = ExternalSampler("true {cnf}")
    return sampler._read(LiteralsEncoding(), io.StringIO(text)), sampler


@pytest.fixture
def block_searches(monkeypatch):
    return count_block_searches(monkeypatch)


@pytest.fixture
def data_dir():
    return DATA
