"""Pinned sweep-service contract: job keys, labels and store digests.

A service directory outlives the code that wrote it: ``repro service
resume`` finds finished jobs by their content key, and a store record's
``deterministic_digest`` is how a resumed sweep is checked against an
uninterrupted one. ``tests/golden/service_contract.json`` freezes, for
one spec of every job kind — including the cap throttle point and the
multidomain/placement reference legs — the spec's ``label``, its key
under 4 cores x 8k instructions, and the digest of the store record
that executing it writes. A change to the job model that moves any of
them would strand every existing service directory.

Regenerate only for an intentional contract change (it then needs a key
migration): ``PYTHONPATH=src python -c "from tests.test_service_contract
import _regenerate; _regenerate()"``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.runner import RunnerSettings
from repro.sim.service import JobSpec, SweepService
from repro.sim.store import deterministic_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "service_contract.json"

SETTINGS = RunnerSettings(cores=4, instructions_per_core=8_000, seed=2011)

SPECS = {
    "policy": JobSpec("policy", "MID1", policy="MemScale"),
    "cap": JobSpec("cap", "MID1", budget_fraction=0.8),
    "cap-throttle": JobSpec("cap", "MID1"),
    "multidomain": JobSpec("multidomain", "MID1", budget_fraction=0.8,
                           coordinated=True),
    "multidomain-memory-only": JobSpec("multidomain", "MID1",
                                       budget_fraction=0.8,
                                       coordinated=False),
    "placement": JobSpec("placement", "MID1", coordinated=True),
    "placement-reference": JobSpec("placement", "MID1", coordinated=False),
    "scenario": JobSpec("scenario", "mix2", policy="MemScale",
                        device="stt-mram"),
}


def _contract(root: Path) -> dict:
    service = SweepService(root, settings=SETTINGS, jobs=1, retries=0)
    service.run(list(SPECS.values()))
    out = {}
    for name, spec in SPECS.items():
        key = service.key_of(spec)
        record = service.store.get(key)
        out[name] = {
            "label": spec.label,
            "key": key,
            "status": record["status"] if record else None,
            "digest": deterministic_digest(record) if record else None,
        }
    return out


def _regenerate():  # pragma: no cover - manual tool
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        contract = _contract(Path(tmp) / "svc")
    GOLDEN_PATH.write_text(json.dumps(contract, indent=1, sort_keys=True)
                           + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return _contract(tmp_path_factory.mktemp("contract") / "svc")


def test_golden_covers_every_spec(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_label_is_pinned(golden, name):
    assert SPECS[name].label == golden[name]["label"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_key_is_pinned(golden, current, name):
    assert current[name]["key"] == golden[name]["key"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_store_digest_is_pinned(golden, current, name):
    assert current[name]["status"] == "ok"
    assert current[name]["digest"] == golden[name]["digest"]
