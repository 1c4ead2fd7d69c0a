"""One snapshot: every mechanism that asks "which bytes is this directory?"
agrees on the file set and on the bytes.

* the reader (:class:`~repro.parsers.topology_file.Snapshot`), the build's
  manifest, the source's stat key and the scenario generator's directory
  state cover exactly the same files — ``topology.txt`` plus what it
  references — on seed-pinned exports, before and after a scenario step;
* the content digest (= the model fingerprint) moves iff a referenced byte
  does;
* for an unedited pinned export the fingerprint is the string the previous
  mechanism (a second read and hash at ``fingerprint()`` time) produced, so
  existing stores keep their plan entries.

Seeded from ``REPRO_DIFF_SEED`` like the other property suites.
"""

import os
import random

import pytest

from repro.api import NetworkModel
from repro.core.campaign import NetworkSource, clear_runtime_cache
from repro.core.delta import ElementManifest
from repro.parsers.topology_file import Snapshot, load_network_directory
from repro.scenarios import generate_scenario
from repro.scenarios.generator import read_directory_state
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))

EXPORTS = {
    "stanford": lambda directory, seed: export_stanford_directory(
        directory,
        zones=3,
        internal_prefixes_per_zone=6,
        service_acl_rules=3,
        seed=seed,
        edge_asa=True,
    ),
    "department": lambda directory, seed: export_department_style_directory(
        directory, switches=3, macs_per_port=2, seed=seed
    ),
}


def _file_sets_agree(directory):
    """The one file set, asserted equal across all four mechanisms."""
    reader = set(Snapshot.read(directory).files)
    manifest = ElementManifest.of_network(load_network_directory(directory))
    built = {"topology.txt", *manifest.files}
    stat_key = {entry[0] for entry in NetworkSource.from_directory(directory).fingerprint}
    scenario_state = set(read_directory_state(directory))
    assert reader == built == stat_key == scenario_state
    return reader


def _fingerprint(directory):
    clear_runtime_cache()
    return NetworkModel.from_directory(directory).fingerprint()


@pytest.mark.parametrize("workload", sorted(EXPORTS))
def test_every_mechanism_sees_the_same_files_and_bytes(workload, tmp_path):
    rng = random.Random(f"{SEED}:{workload}")
    directory = str(tmp_path)
    EXPORTS[workload](directory, rng.randrange(1, 200))
    noise = tmp_path / "report.json"
    noise.write_bytes(b"\xff\xfe" + rng.randbytes(64))

    files = _file_sets_agree(directory)
    assert "report.json" not in files
    before = Snapshot.read(directory).digest
    assert _fingerprint(directory) == before
    source = NetworkSource.from_directory(directory)

    # Bytes the topology never references move nothing ...
    noise.write_bytes(rng.randbytes(97))
    assert Snapshot.read(directory).digest == before
    assert NetworkSource.from_directory(directory) == source
    # ... and neither does rewriting a referenced file with the same bytes.
    name = rng.choice(sorted(files))
    same = Snapshot.read(directory).files[name]
    (tmp_path / name).write_bytes(same)
    assert Snapshot.read(directory).digest == before

    # One scenario step: the digest moves iff a written byte differs.
    scenario = generate_scenario(
        directory, steps=1, seed=rng.randrange(10_000), inject_violation=False
    )
    assert scenario.base_digest == before
    state = read_directory_state(directory)
    changed = False
    for written, text in scenario.steps[0].writes:
        changed |= text != state[written]
        with open(tmp_path / written, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    after = Snapshot.read(directory).digest
    assert (after != before) == changed
    assert _fingerprint(directory) == after
    _file_sets_agree(directory)

    # Any single referenced byte: appended, the digest moves; restored, it
    # comes back.
    name = rng.choice(sorted(files))
    original = (tmp_path / name).read_bytes()
    (tmp_path / name).write_bytes(original + b"\n")
    assert Snapshot.read(directory).digest != after
    (tmp_path / name).write_bytes(original)
    assert Snapshot.read(directory).digest == after


def test_fingerprint_of_an_unedited_pinned_export_did_not_move(tmp_path):
    """Literals recorded on the parent commit (where ``fingerprint()``
    re-read and re-hashed the directory): same payload, new source of the
    bytes, same string — stores written before this change still hit."""
    department = tmp_path / "department"
    stanford = tmp_path / "stanford"
    department.mkdir()
    stanford.mkdir()
    export_department_style_directory(str(department))
    export_stanford_directory(str(stanford), zones=4, internal_prefixes_per_zone=20)
    assert _fingerprint(str(department)) == (
        "037316a1de678f96ca1c3d7066eeeee274e7e50bd6748428914cb50b2c3a4162"
    )
    assert _fingerprint(str(stanford)) == (
        "57ac96698f9b76f7dc925c6c532dda517bd3f0c67454554d355a1e6c8dbacdb1"
    )
