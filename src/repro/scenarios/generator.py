"""Seed-pinned update-sequence generation over exported snapshot directories.

A :class:`Scenario` is a pure description: ``steps`` of file rewrites over a
snapshot directory (the format :func:`repro.parsers.topology_file.
load_network_directory` reads).  Generation threads a virtual copy of the
directory state through every step, so the same seed over the same initial
directory always produces the same step sequence — and, because steps carry
the full new file contents, a scenario generated against one export can be
replayed against any byte-identical export of the same workload.

Update kinds (each materialized as a directory edit so the delta manifest
machinery attributes it to exactly the elements it touched):

``acl-insert`` / ``acl-delete``
    Add or remove one ``block PORT`` rule of a zone-edge service ACL.
``fib-insert`` / ``fib-delete``
    Add a more-specific route inside an existing prefix (pointed at a port
    the router already uses) or withdraw a non-default route.  Hub routers
    (the highest-in-degree devices, e.g. the stanford cores) are excluded:
    real update churn lives at the edges, and edits there keep the delta
    closure small.
``mac-insert`` / ``mac-delete``
    Learn or age out one entry of a switch MAC table.
``asa-churn``
    Rewrite a stateful middlebox's config: rotate a static NAT binding and
    its inbound ``permit`` rule (the :mod:`repro.models` ASA pipeline —
    NAT bindings plus firewall state — rebuilt from the edited config).
``link-down`` / ``link-up``
    Remove a topology link line, then restore it at its original position a
    couple of steps later (the flap).  Topology edits are deliberately
    incompatible with delta splicing, so these steps exercise the full-rerun
    fallback.
``violation-inject`` / ``violation-revert``
    The seeded transient violation: redirect one edge router's
    most-specific route onto an uplink whose neighbor routes the same
    prefix straight back — a forwarding loop that exists only between the
    inject and revert steps.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.models.router import longest_prefix_match
from repro.parsers.mac_table import (
    format_mac_table,
    mac_table_entries,
    parse_mac_table,
)
from repro.parsers.routing_table import format_routing_table, parse_routing_table
from repro.parsers.service_acl import format_service_acl, parse_service_acl
from repro.parsers.topology_file import Snapshot, read_declarations
from repro.sefl.util import number_to_ip

#: Service ports the ACL churn draws from — disjoint from the seed policy in
#: :data:`repro.workloads.stanford.SERVICE_ACL_PORTS` is not required;
#: inserts skip ports the file already blocks.
ACL_PORT_POOL = (21, 22, 25, 53, 80, 110, 143, 443, 8080, 8443)


@dataclass(frozen=True)
class UpdateStep:
    """One transient state: the file rewrites that produce it.

    ``writes`` maps snapshot file names to their complete new text — full
    contents rather than patches, so applying a step is idempotent and the
    executor never depends on what a previous (possibly skipped) state left
    behind.
    """

    index: int
    kind: str
    description: str
    writes: Tuple[Tuple[str, str], ...]
    violation: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "description": self.description,
            "files": sorted(name for name, _ in self.writes),
            "violation": self.violation,
        }


@dataclass(frozen=True)
class Scenario:
    """A seed-pinned update sequence over one exported directory."""

    workload: str
    seed: int
    steps: Tuple[UpdateStep, ...]
    #: Digest of the directory state the sequence was generated against —
    #: replaying against a different export of the "same" workload is a
    #: user error this makes detectable.
    base_digest: str = ""

    def fingerprint(self) -> str:
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "base": self.base_digest,
            "steps": [
                (step.kind, step.description, list(step.writes))
                for step in self.steps
            ],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "base_digest": self.base_digest,
            "steps": [step.to_dict() for step in self.steps],
            "fingerprint": self.fingerprint(),
        }


# ---------------------------------------------------------------------------
# Directory state
# ---------------------------------------------------------------------------


def read_directory_state(directory: str) -> Dict[str, str]:
    """The text of ``topology.txt`` plus every snapshot file it references —
    a view of the one reader the build uses, so scenario edits can never
    touch a file delta verification would not see."""
    return Snapshot.read(directory).texts()


def _edge_fib_files(
    devices: Dict[str, Tuple[str, str]],
    links: Sequence[Tuple[str, str, str, str]],
) -> List[str]:
    """Router snapshot files eligible for FIB churn: every router except the
    highest-in-degree hubs (unless that would leave none).  In-degree only
    counts links from other *routers* — injection shims (service ACLs)
    feeding a router say nothing about whether it is a hub."""
    in_degree: Dict[str, int] = {}
    for src, _, dst, _ in links:
        if devices.get(src, ("", ""))[0] == "router":
            in_degree[dst] = in_degree.get(dst, 0) + 1
    routers = sorted(
        name for name, (kind, _) in devices.items() if kind == "router"
    )
    if not routers:
        return []
    peak = max(in_degree.get(name, 0) for name in routers)
    edges = [name for name in routers if in_degree.get(name, 0) < peak]
    chosen = edges or routers
    return [devices[name][1] for name in chosen]


# ---------------------------------------------------------------------------
# Per-kind editors (each returns (new file text, description) or None when
# the kind cannot apply to the current state)
# ---------------------------------------------------------------------------


def _acl_edit(
    text: str, target: str, rng: random.Random, insert: bool
) -> Optional[Tuple[str, str]]:
    ports = parse_service_acl(text)
    if insert:
        pool = [port for port in ACL_PORT_POOL if port not in ports]
        if not pool:
            return None
        port = rng.choice(pool)
        ports.insert(rng.randrange(len(ports) + 1), port)
        description = f"insert 'block {port}' into {target}"
    else:
        if len(ports) <= 1:
            return None
        port = ports.pop(rng.randrange(len(ports)))
        description = f"delete 'block {port}' from {target}"
    return format_service_acl(ports), description


def _fib_edit(
    text: str, target: str, rng: random.Random, insert: bool
) -> Optional[Tuple[str, str]]:
    fib = parse_routing_table(text)
    if insert:
        covers = [
            (index, entry)
            for index, entry in enumerate(fib)
            if 8 <= entry[1] <= 28
        ]
        if not covers:
            return None
        _, (address, plen, _) = covers[rng.randrange(len(covers))]
        new_len = min(plen + 4, 30)
        subnet = rng.randrange(1 << (new_len - plen))
        new_address = address | (subnet << (32 - new_len))
        port = rng.choice(sorted({entry[2] for entry in fib}))
        fib.insert(rng.randrange(len(fib) + 1), (new_address, new_len, port))
        description = (
            f"insert route {number_to_ip(new_address)}/{new_len} -> {port} "
            f"into {target}"
        )
    else:
        removable = [index for index, entry in enumerate(fib) if entry[1] > 0]
        if len(fib) <= 1 or not removable:
            return None
        index = removable[rng.randrange(len(removable))]
        address, plen, port = fib.pop(index)
        description = (
            f"delete route {number_to_ip(address)}/{plen} -> {port} "
            f"from {target}"
        )
    return format_routing_table(fib), description


def _mac_edit(
    text: str, target: str, rng: random.Random, insert: bool
) -> Optional[Tuple[str, str]]:
    table = parse_mac_table(text)
    if not table:
        return None
    vlan = next((entry[0] for entry in mac_table_entries(text)), 1)
    known = {mac for macs in table.values() for mac in macs}
    if insert:
        port = rng.choice(sorted(table))
        mac = (max(known) + 1 + rng.randrange(64)) & 0xFFFF_FFFF_FFFF
        while mac in known:  # deterministic: advances from a seeded draw
            mac = (mac + 1) & 0xFFFF_FFFF_FFFF
        table[port].append(mac)
        description = f"learn MAC {mac:012x} on {target}:{port}"
    else:
        rich = [port for port in sorted(table) if len(table[port]) > 1]
        if not rich:
            return None
        port = rng.choice(rich)
        mac = table[port].pop(rng.randrange(len(table[port])))
        description = f"age out MAC {mac:012x} from {target}:{port}"
    return format_mac_table(table, vlan=vlan), description


def _asa_churn(
    text: str,
    target: str,
    rng: random.Random,
    fib_state: Dict[str, str],
) -> Optional[Tuple[str, str]]:
    """Rotate one static NAT binding (and its inbound permit rule) to a new
    private address sampled from the routed address space."""
    from repro.parsers.asa_config import format_asa_config, parse_asa_config

    config = parse_asa_config(text)
    prefixes: List[Tuple[int, int]] = []
    for fib_text in fib_state.values():
        prefixes.extend(
            (address, plen)
            for address, plen, _ in parse_routing_table(fib_text)
            if 8 <= plen <= 28
        )
    if not prefixes:
        return None
    address, plen = prefixes[rng.randrange(len(prefixes))]
    private = number_to_ip(address + rng.randrange(1, 1 << min(32 - plen, 8)))
    public_base = (config.public_address or "141.85.37.1").rsplit(".", 1)[0]
    public = f"{public_base}.{rng.randrange(10, 250)}"
    service = rng.choice(ACL_PORT_POOL)
    from repro.models.firewall import AclRule

    if config.static_nat:
        slot = rng.randrange(len(config.static_nat))
        config.static_nat[slot] = (public, private)
    else:
        config.static_nat.append((public, private))
    rule = AclRule(
        action="allow", src=None, dst=f"{private}/32", proto=6, dst_port=service
    )
    permits = [r for r in config.inbound_rules if r.action == "allow"]
    if permits and rng.random() < 0.5:
        config.inbound_rules[config.inbound_rules.index(rng.choice(permits))] = rule
    else:
        config.inbound_rules.append(rule)
    description = (
        f"rebind static NAT {public} -> {private} (permit tcp/{service}) "
        f"in {target}"
    )
    return format_asa_config(config), description


# ---------------------------------------------------------------------------
# The seeded violation: a transient forwarding loop
# ---------------------------------------------------------------------------


def _loop_candidates(
    state: Dict[str, str],
    devices: Dict[str, Tuple[str, str]],
    links: Sequence[Tuple[str, str, str, str]],
) -> List[Tuple[str, int, str, str]]:
    """Every ``(fib file, entry index, redirect port, neighbor)`` whose
    redirect provably creates a two-router forwarding loop: the neighbor's
    longest-prefix match for the redirected prefix points straight back."""
    fib_of = {
        name: parse_routing_table(state[file])
        for name, (kind, file) in devices.items()
        if kind == "router" and file in state
    }
    out_link = {(src, port): dst for src, port, dst, _ in links}
    candidates: List[Tuple[str, int, str, str]] = []
    for name in sorted(fib_of):
        fib = fib_of[name]
        prefix_count: Dict[Tuple[int, int], int] = {}
        for address, plen, _ in fib:
            prefix_count[(address, plen)] = prefix_count.get((address, plen), 0) + 1
        for index, (address, plen, port) in enumerate(fib):
            if plen < 17 or prefix_count[(address, plen)] != 1:
                continue
            # The entry must be the unique most-specific cover of its own
            # base address, or the redirect would not win the LPM.
            if longest_prefix_match(fib, address) != port:
                continue
            for redirect in sorted({p for _, _, p in fib if p != port}):
                neighbor = out_link.get((name, redirect))
                if neighbor is None or neighbor not in fib_of:
                    continue
                back = longest_prefix_match(fib_of[neighbor], address)
                if back is not None and out_link.get((neighbor, back)) == name:
                    file = devices[name][1]
                    candidates.append((file, index, redirect, neighbor))
                    break
    return candidates


def _violation_edit(
    state: Dict[str, str],
    devices: Dict[str, Tuple[str, str]],
    links: Sequence[Tuple[str, str, str, str]],
    rng: random.Random,
) -> Optional[Tuple[str, str, str, Tuple[int, int, str]]]:
    """Pick one loop candidate; returns ``(file, new text, description,
    original entry)`` — the original entry is what the revert restores."""
    candidates = _loop_candidates(state, devices, links)
    if not candidates:
        return None
    file, index, redirect, neighbor = candidates[rng.randrange(len(candidates))]
    fib = parse_routing_table(state[file])
    address, plen, port = fib[index]
    fib[index] = (address, plen, redirect)
    description = (
        f"redirect {number_to_ip(address)}/{plen} from {port} to {redirect} "
        f"in {file} (forwarding loop via {neighbor})"
    )
    return file, format_routing_table(fib), description, (address, plen, port)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def generate_scenario(
    directory: str,
    steps: int,
    seed: int,
    workload: str = "directory",
    inject_violation: bool = True,
) -> Scenario:
    """Generate a seed-pinned update sequence over an exported directory.

    Same ``(directory contents, steps, seed, inject_violation)`` always
    yields the same scenario; the directory itself is never modified (the
    executor applies steps).  With ``inject_violation`` a forwarding-loop
    edit lands around one third of the way in and is reverted around two
    thirds, so the violation is transient — present in some intermediate
    states, absent at both ends.
    """
    if steps < 1:
        raise ValueError("a scenario needs at least one step")
    snapshot = Snapshot.read(directory)
    state = snapshot.texts()
    base_digest = snapshot.digest
    rng = random.Random(seed)

    inject_at = revert_at = 0
    if inject_violation:
        inject_at = max(1, steps // 3)
        revert_at = min(steps, inject_at + max(1, steps // 3))

    update_steps: List[UpdateStep] = []
    down_link: Optional[Tuple[int, str, int]] = None  # (line index, line, since)
    violation: Optional[Tuple[str, Tuple[int, int, str]]] = None
    violation_file: Optional[str] = None

    for index in range(1, steps + 1):
        declared, links = read_declarations(state["topology.txt"])
        devices = {name: (kind, file) for name, kind, file in declared}
        acl_files = sorted(
            file for _, (kind, file) in devices.items() if kind == "service-acl"
        )
        mac_files = sorted(
            file for _, (kind, file) in devices.items() if kind == "switch"
        )
        asa_files = sorted(
            file for _, (kind, file) in devices.items() if kind == "asa"
        )
        fib_files = sorted(
            file
            for file in _edge_fib_files(devices, links)
            if file != violation_file
        )
        fib_state = {
            file: state[file]
            for _, (kind, file) in sorted(devices.items())
            if kind == "router" and file in state
        }
        step: Optional[UpdateStep] = None

        if inject_violation and index == inject_at:
            edit = _violation_edit(state, devices, links, rng)
            if edit is not None:
                file, text, description, original = edit
                violation = (file, original)
                violation_file = file
                step = UpdateStep(
                    index=index,
                    kind="violation-inject",
                    description=description,
                    writes=((file, text),),
                    violation=True,
                )
        elif violation is not None and index == revert_at:
            file, (address, plen, port) = violation
            fib = parse_routing_table(state[file])
            restored = [
                (address, plen, port) if entry[:2] == (address, plen) else entry
                for entry in fib
            ]
            step = UpdateStep(
                index=index,
                kind="violation-revert",
                description=(
                    f"restore {number_to_ip(address)}/{plen} -> {port} in {file}"
                ),
                writes=((file, format_routing_table(restored)),),
                violation=True,
            )
            violation = None
            violation_file = None

        if step is None and down_link is not None:
            line_index, line, since = down_link
            if index - since >= 2 or index == steps:
                lines = state["topology.txt"].splitlines()
                lines.insert(line_index, line)
                step = UpdateStep(
                    index=index,
                    kind="link-up",
                    description=f"restore {line.strip()!r}",
                    writes=(("topology.txt", "\n".join(lines) + "\n"),),
                )
                down_link = None

        if step is None:
            step = _pick_update(
                state,
                index,
                rng,
                acl_files=acl_files,
                fib_files=fib_files,
                mac_files=mac_files,
                asa_files=asa_files,
                fib_state=fib_state,
                allow_flap=down_link is None,
            )
            if step is not None and step.kind == "link-down":
                # Diff old vs new topology to find the removed line's index;
                # link-up reinserts it there, restoring the exact bytes.
                old_lines = state["topology.txt"].splitlines()
                new_lines = dict(step.writes)["topology.txt"].splitlines()
                removed = next(
                    i
                    for i in range(len(old_lines))
                    if i >= len(new_lines) or old_lines[i] != new_lines[i]
                )
                down_link = (removed, old_lines[removed], index)
        if step is None:
            raise RuntimeError(
                f"no applicable update kind at step {index} "
                f"(directory {directory!r} has no editable snapshots)"
            )
        for name, text in step.writes:
            state[name] = text
        update_steps.append(step)

    return Scenario(
        workload=workload,
        seed=seed,
        steps=tuple(update_steps),
        base_digest=base_digest,
    )


def _pick_update(
    state: Dict[str, str],
    index: int,
    rng: random.Random,
    *,
    acl_files: Sequence[str],
    fib_files: Sequence[str],
    mac_files: Sequence[str],
    asa_files: Sequence[str],
    fib_state: Dict[str, str],
    allow_flap: bool,
) -> Optional[UpdateStep]:
    """One weighted, seeded draw over the kinds the directory supports.
    Kinds that turn out inapplicable (an ACL down to its last rule, say)
    fall through to the next draw, so generation never dead-ends early."""
    # ACL and ASA edits dominate the mix on purpose: they touch source-island
    # elements whose delta closure is one or two ports, so the typical step
    # splices most of the campaign — which is the point of the subsystem.
    # FIB churn and link flaps are the expensive tail (a routing change
    # taints every injection that can reach the router; a topology edit is
    # incompatible with splicing outright).
    weighted: List[Tuple[str, int]] = []
    if acl_files:
        weighted += [("acl-insert", 4), ("acl-delete", 2)]
    if fib_files:
        weighted += [("fib-insert", 2), ("fib-delete", 1)]
    if mac_files:
        weighted += [("mac-insert", 2), ("mac-delete", 1)]
    if asa_files:
        weighted += [("asa-churn", 3)]
    if allow_flap:
        weighted += [("link-down", 1)]
    kinds = [kind for kind, weight in weighted for _ in range(weight)]
    for _ in range(16):  # a few seeded retries before giving up
        if not kinds:
            return None
        kind = rng.choice(kinds)
        edit: Optional[Tuple[str, str]] = None
        target = ""
        if kind.startswith("acl-"):
            target = rng.choice(list(acl_files))
            edit = _acl_edit(state[target], target, rng, kind.endswith("insert"))
        elif kind.startswith("fib-"):
            target = rng.choice(list(fib_files))
            edit = _fib_edit(state[target], target, rng, kind.endswith("insert"))
        elif kind.startswith("mac-"):
            target = rng.choice(list(mac_files))
            edit = _mac_edit(state[target], target, rng, kind.endswith("insert"))
        elif kind == "asa-churn":
            target = rng.choice(list(asa_files))
            edit = _asa_churn(state[target], target, rng, fib_state)
        elif kind == "link-down":
            lines = state["topology.txt"].splitlines()
            link_lines = [
                i for i, line in enumerate(lines) if line.strip().startswith("link ")
            ]
            if link_lines:
                removed = rng.choice(link_lines)
                line = lines.pop(removed)
                return UpdateStep(
                    index=index,
                    kind="link-down",
                    description=f"remove '{line.strip()}'",
                    writes=(("topology.txt", "\n".join(lines) + "\n"),),
                )
        if edit is not None:
            text, description = edit
            return UpdateStep(
                index=index,
                kind=kind,
                description=description,
                writes=((target, text),),
            )
        kinds = [k for k in kinds if k != kind]
    return None
