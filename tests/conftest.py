"""The pin ledger: every recorded value a test compares against.

Trace digests, event counts, registry and report hashes, message
digests, Zipf hashes and fault-sweep rows all live in ``tests/pins.json``,
keyed by pin name, and are read through the ``pin`` fixture:
``pin(name, observed)`` asserts that ``observed`` equals the ledger's
entry exactly.

``pytest --repin`` records what each pin observes instead of comparing,
and at the end of the session rewrites the ledger with those values
(entries no test of the session read are kept as they are).  A change
meant to move schedules is then re-pinned as one data diff; on a tree
that moves nothing the rewrite is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

PINS = Path(__file__).with_name("pins.json")


def pytest_addoption(parser):
    parser.addoption(
        "--repin", action="store_true",
        help=f"rewrite {PINS.name} from this tree's values instead of comparing",
    )


def pinned_names(prefix: str) -> list[str]:
    """The ledger's pin names that start with ``prefix``, sorted."""
    return sorted(name for name in json.loads(PINS.read_text()) if name.startswith(prefix))


class Ledger:
    def __init__(self, path: Path, repin: bool):
        self.path = path
        self.repin = repin
        self.values = json.loads(path.read_text())
        self.observed: dict[str, Any] = {}

    def check(self, name: str, observed: Any) -> None:
        observed = json.loads(json.dumps(observed))  # tuples -> lists
        if self.repin:
            first = self.observed.setdefault(name, observed)
            assert observed == first, f"pin {name!r} observed two different values"
            return
        assert name in self.values, f"no pin {name!r} in {self.path.name} (run pytest --repin)"
        assert observed == self.values[name], f"pin {name!r} moved"

    def save(self) -> None:
        if self.repin and self.observed:
            self.values.update(self.observed)
            self.path.write_text(json.dumps(self.values, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def _ledger(request):
    ledger = Ledger(PINS, request.config.getoption("--repin"))
    yield ledger
    ledger.save()


@pytest.fixture
def pin(_ledger):
    """``pin(name, observed)``: assert ``observed`` equals ledger entry ``name``."""
    return _ledger.check
