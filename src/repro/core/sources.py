"""Network sources: picklable recipes for (re)building a network, and the
default-injection policy every front end shares.

Process-pool execution never ships a :class:`~repro.network.topology.Network`
across the process boundary: SEFL programs contain closures (``For`` bodies)
that do not pickle.  Instead each job carries a :class:`NetworkSource` — a
picklable *recipe* ("load this directory", "build this workload with these
options") — and each process builds the network once through the runtime
cache (:func:`repro.core.jobs.runtime_for`).  Networks built in-process
(``NetworkSource.from_network``) cannot be shipped, so those campaigns
execute in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.network.topology import Network


@dataclass(frozen=True)
class NetworkSource:
    """A picklable recipe for (re)building a network in a worker process.

    ``kind`` is one of ``"directory"`` (a §7.1 snapshot directory),
    ``"workload"`` (a registered synthetic workload builder) or ``"object"``
    (an in-process :class:`Network`, which forces in-process execution).

    ``fingerprint`` is a directory source's **stat key**: name, mtime and
    size of ``topology.txt`` and of exactly the files it references (see
    :func:`repro.parsers.topology_file.snapshot_file_names`), taken at
    source-creation time.  It answers the only question a stat can answer —
    *might the disk have changed since I looked?* — for the per-process
    runtime cache and for the resident service's staleness check
    (``NetworkSource.from_directory(d) != model.source``).  *What was
    built* is a different question, answered by the build's own manifest
    (:attr:`repro.core.jobs.Runtime.content_digest`).  Files the topology
    never references do not take part, so writing a report into the
    directory rebuilds nothing.
    """

    kind: str
    directory: Optional[str] = None
    workload: Optional[str] = None
    options: Tuple[Tuple[str, object], ...] = ()
    fingerprint: Tuple = ()
    network: Optional[Network] = field(default=None, compare=False, repr=False)

    @classmethod
    def from_directory(cls, directory: str) -> "NetworkSource":
        from repro.parsers.topology_file import (
            TOPOLOGY_FILE,
            TopologyParseError,
            snapshot_file_names,
        )

        directory = os.path.abspath(directory)
        try:
            names = snapshot_file_names(directory)
        except (OSError, UnicodeDecodeError, TopologyParseError):
            names = [TOPOLOGY_FILE]  # nothing will build; key on what a stat sees
        entries = []
        for name in names:
            try:
                stat = os.stat(os.path.join(directory, name))
                entries.append((name, stat.st_mtime_ns, stat.st_size))
            except OSError:
                # No observable state: a constant here would let two broken
                # directories (or one, before and after a file was swapped
                # while unreadable) share a cached build.  A fresh nonce
                # never compares equal, not even to a rescan of itself.
                entries.append((name, "unstatable", os.urandom(16).hex()))
        return cls(kind="directory", directory=directory, fingerprint=tuple(entries))

    @classmethod
    def from_workload(cls, name: str, **options: object) -> "NetworkSource":
        return cls(
            kind="workload",
            workload=name,
            options=tuple(sorted(options.items())),
        )

    @classmethod
    def from_network(cls, network: Network) -> "NetworkSource":
        return cls(kind="object", network=network)

    @property
    def picklable(self) -> bool:
        return self.kind != "object"

    def cache_key(self) -> Tuple:
        if self.kind == "object":
            return ("object", id(self.network))
        return (
            self.kind,
            self.directory,
            self.workload,
            self.options,
            self.fingerprint,
        )

    def describe(self) -> str:
        if self.kind == "directory":
            return self.directory or "<directory>"
        if self.kind == "workload":
            opts = ", ".join(f"{k}={v}" for k, v in self.options)
            return f"workload:{self.workload}({opts})"
        return f"network:{self.network.name if self.network else '?'}"

    def build_full(self) -> Tuple[Network, Optional[List[Tuple[str, str]]]]:
        """Build the network plus the source's registered injection ports
        (``None`` when the source kind does not define any)."""
        if self.kind == "directory":
            from repro.parsers.topology_file import load_network_directory

            return load_network_directory(self.directory), None
        if self.kind == "workload":
            from repro.workloads import build_campaign_network

            return build_campaign_network(self.workload, **dict(self.options))
        if self.kind == "object":
            if self.network is None:
                raise ValueError("object network source lost its network")
            return self.network, None
        raise ValueError(f"unknown network source kind {self.kind!r}")


def default_injection_ports(
    network: Network,
    registered: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[Tuple[str, str]]:
    """The one default-injection policy, shared by campaigns and the API's
    NetworkModel: the source's registered entry ports, else every free input
    port, else (fully wired rings, which have no free edges) every input
    port."""
    if registered:
        return list(registered)
    free = free_input_ports(network)
    if free:
        return free
    return [
        (element.name, port)
        for element in network
        for port in element.input_ports
    ]


def free_input_ports(network: Network) -> List[Tuple[str, str]]:
    """Input ports with no incoming link — the natural injection points.

    Links whose *source* element does not exist (dangling links kept by the
    permissive topology parser) carry no traffic, so they do not count as
    wiring: their destination ports stay injectable.
    """
    wired = {
        (link.destination.element, link.destination.port)
        for link in network.links
        if network.has_element(link.source.element)
    }
    return [
        (element.name, port)
        for element in network
        for port in element.input_ports
        if (element.name, port) not in wired
    ]
