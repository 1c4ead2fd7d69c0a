"""Topology file parser: assemble a network from per-device snapshots.

Per §7.1, the user places the device snapshots in a directory together with
a file describing the links between the boxes, then runs SymNet on it.  The
topology file format accepted here::

    # device declarations: name, kind, snapshot file (relative to the dir)
    device sw1 switch sw1.mac
    device r1  router r1.fib
    device fw1 asa    fw1.conf
    device a1  service-acl a1.acl
    device p1  click  pipeline.click

    # unidirectional links: element:port -> element:port
    link sw1:out0 -> r1:in0
    link r1:out0  -> sw1:in0

Devices of kind ``switch`` / ``router`` / ``asa`` are built through the
corresponding parsers; ``click`` devices expand into all the elements of the
referenced Click configuration (their internal links included), and the
topology file then refers to those inner element names directly.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.click.parser import parse_click_config
from repro.models.asa import build_asa
from repro.network.ports import ELEMENT_CHARS, PORT_CHARS
from repro.network.topology import Network
from repro.parsers.asa_config import parse_asa_config
from repro.parsers.mac_table import switch_from_mac_table
from repro.parsers.routing_table import router_from_routing_table
from repro.parsers.service_acl import service_acl_from_snapshot

TOPOLOGY_FILE = "topology.txt"

_DEVICE = re.compile(r"^device\s+(\S+)\s+(\S+)\s+(\S+)$")
_LINK = re.compile(
    rf"^link\s+([{ELEMENT_CHARS}]+):([{PORT_CHARS}]+)\s*->\s*"
    rf"([{ELEMENT_CHARS}]+):([{PORT_CHARS}]+)$"
)

#: ``(name, kind, snapshot file)`` of a ``device`` line.
DeviceLine = Tuple[str, str, str]
#: ``(src, src_port, dst, dst_port)`` of a ``link`` line.
LinkLine = Tuple[str, str, str, str]


class TopologyParseError(Exception):
    """Raised when a topology description cannot be parsed."""


def read_declarations(text: str) -> Tuple[List[DeviceLine], List[LinkLine]]:
    """The device and link declarations of a topology description, each in
    file order.  The one reader of the grammar: the build, the snapshot file
    set and scenario generation all take their declarations from here."""
    devices: List[DeviceLine] = []
    links: List[LinkLine] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _DEVICE.match(line) or _LINK.match(line)
        if match is None:
            raise TopologyParseError(f"cannot parse line: {line!r}")
        (devices if match.re is _DEVICE else links).append(match.groups())
    return devices, links


def parse_topology_file(
    text: str,
    snapshots: Dict[str, str],
    network: Optional[Network] = None,
    provenance: Optional[Dict[str, List[str]]] = None,
) -> Network:
    """Parse a topology description.

    ``snapshots`` maps file names referenced in the description to their
    contents, which keeps the parser independent of the filesystem (the
    directory-based entry point below populates it from disk).

    ``provenance``, when given, is filled with snapshot-file → element-names
    entries: exactly the elements each device file's contents expanded into
    (a ``click`` snapshot may contribute many).  Delta verification uses
    this to map an edited file back to the network elements it defines.
    """
    network = network if network is not None else Network("parsed-topology")
    devices, links = read_declarations(text)
    for name, kind, snapshot_name in devices:
        before = set(network._elements) if provenance is not None else ()
        _build_device(network, name, kind, snapshot_name, snapshots)
        if provenance is not None:
            created = [e for e in network._elements if e not in before]
            provenance.setdefault(snapshot_name, []).extend(created)

    for src, src_port, dst, dst_port in links:
        # Permissive: links naming unknown elements are recorded rather than
        # rejected, so they surface as Network.validate() findings and the
        # CLI can warn about them before execution (the engine terminates
        # any path reaching one with an explicit "dangling link" drop).
        network.add_link_permissive((src, src_port), (dst, dst_port))
    return network


def _build_device(
    network: Network,
    name: str,
    kind: str,
    snapshot_name: str,
    snapshots: Dict[str, str],
) -> None:
    if snapshot_name not in snapshots:
        raise TopologyParseError(
            f"device {name!r} references missing snapshot {snapshot_name!r}"
        )
    content = snapshots[snapshot_name]
    if kind == "switch":
        network.add_element(switch_from_mac_table(name, content))
    elif kind == "router":
        network.add_element(router_from_routing_table(name, content))
    elif kind == "asa":
        build_asa(network, name, parse_asa_config(content))
    elif kind == "service-acl":
        network.add_element(service_acl_from_snapshot(name, content))
    elif kind == "click":
        parse_click_config(content, network)
    else:
        raise TopologyParseError(f"unknown device kind {kind!r} for {name!r}")


def referenced_snapshot_files(topology_text: str) -> List[str]:
    """The snapshot file names a topology description references, in
    declaration order (duplicates removed).  Read by the parser's own
    :func:`read_declarations`, so nothing that asks "which files are this
    snapshot?" can drift from what the parser reads."""
    devices, _ = read_declarations(topology_text)
    return list(dict.fromkeys(snapshot_name for _, _, snapshot_name in devices))


def _read(directory: str, name: str) -> bytes:
    """The one place a snapshot file is opened for reading."""
    with open(os.path.join(directory, name), "rb") as handle:
        return handle.read()


def snapshot_file_names(directory: str) -> List[str]:
    """The files that *are* the snapshot in ``directory``: ``topology.txt``
    plus exactly the files it references.  Anything else living there (a
    report, a baseline, a ``.DS_Store``) is not part of the network — it is
    never opened, stat'ed or hashed."""
    topology = _read(directory, TOPOLOGY_FILE).decode("utf-8")
    return [TOPOLOGY_FILE, *referenced_snapshot_files(topology)]


@dataclass(frozen=True)
class Snapshot:
    """One read of a snapshot directory: the bytes of every file
    :func:`snapshot_file_names` lists, and their identity.  Every consumer
    of a directory's content (the build, its manifest, the model
    fingerprint, scenario generation) takes it from here, so they agree on
    the file set and on the bytes by construction."""

    #: file name -> bytes; ``topology.txt`` first, then declaration order.
    files: Dict[str, bytes]

    @classmethod
    def read(cls, directory: str) -> "Snapshot":
        """Raises ``OSError`` when ``topology.txt`` or a referenced file
        cannot be read: bytes that could not be read have no identity."""
        topology = _read(directory, TOPOLOGY_FILE)
        files = {TOPOLOGY_FILE: topology}
        for name in referenced_snapshot_files(topology.decode("utf-8")):
            files[name] = _read(directory, name)
        return cls(files)

    def texts(self) -> Dict[str, str]:
        return {name: data.decode("utf-8") for name, data in self.files.items()}

    @cached_property
    def digests(self) -> Dict[str, str]:
        """Per-file sha256 of exactly the bytes read."""
        return {
            name: hashlib.sha256(data).hexdigest()
            for name, data in self.files.items()
        }

    @cached_property
    def digest(self) -> str:
        """Content identity of the snapshot: topology text plus the sorted
        per-file digests.  Content only — no path — so byte-identical
        snapshots at different paths (copied checkouts, run-numbered CI
        workspaces) share one identity against a shared store."""
        referenced = dict(self.digests)
        del referenced[TOPOLOGY_FILE]
        key = (
            "directory",
            self.files[TOPOLOGY_FILE].decode("utf-8"),
            tuple(sorted(referenced.items())),
        )
        return hashlib.sha256(repr(("network-model", key)).encode()).hexdigest()


def load_network_directory(directory: str) -> Network:
    """Load a network from a directory containing ``topology.txt`` plus the
    per-device snapshot files it references.

    The returned network carries a ``source_manifest`` attribute — what
    this build *is*: the snapshot's content digest (the model fingerprint),
    the ``topology.txt`` digest and, for every referenced snapshot file, a
    digest of the exact bytes this build parsed and the element names they
    expanded into.  All of it comes from the one :class:`Snapshot` read, so
    the manifest adds no I/O — it is what lets :mod:`repro.core.delta`
    later tell *which* elements an edited directory actually touched.
    """
    snapshot = Snapshot.read(directory)
    texts = snapshot.texts()
    provenance: Dict[str, List[str]] = {}
    network = parse_topology_file(
        texts.pop(TOPOLOGY_FILE), texts, provenance=provenance
    )
    network.source_manifest = {
        "content_digest": snapshot.digest,
        "topology_digest": snapshot.digests[TOPOLOGY_FILE],
        "files": {
            name: {
                "digest": snapshot.digests[name],
                "elements": sorted(provenance.get(name, [])),
            }
            for name in texts
        },
    }
    return network
