"""The :class:`NetworkModel` facade — one front door to the analysis stack.

A ``NetworkModel`` wraps a network *source* (a §7.1 snapshot directory, a
registered synthetic workload, or an in-process
:class:`~repro.network.topology.Network`) and owns everything that should
happen exactly once per network, no matter how many campaigns or query
batches run against it:

* building the network (resolved through the per-process campaign runtime
  cache, so the model, its campaigns and their in-process jobs share one
  build);
* ``Network.validate()`` — the findings are computed once and handed to
  every campaign the model spawns, so CLI and API warnings are identical
  and directory networks are never silently re-validated per construction
  site;
* the default injection ports (the workload's registered entry points, or
  every free input port, or — for fully wired rings — every input port).

Ask questions with :meth:`NetworkModel.query`, which compiles a batch of
declarative :mod:`repro.api.queries` objects onto one shared campaign plan
(see :mod:`repro.api.planner`), or drop down to :meth:`campaign` for the raw
:class:`~repro.core.campaign.VerificationCampaign` machinery.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Optional, Tuple, Union

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    default_injection_ports,
)
from repro.core.jobs import Runtime, runtime_for
from repro.network.topology import Network

SourceLike = Union[NetworkSource, Network, str]


def _error_nonce() -> str:
    """A never-repeating token for identity keys of *broken* state.  An
    unreadable topology or a stat-failed device file has no observable
    identity, so collapsing it to a constant would make two different
    broken directories — or the same directory before and after a file was
    swapped while unreadable — compare equal and serve each other's cached
    plans.  A fresh nonce makes every degenerate key unequal to every
    other (including a recomputation of itself), which disables plan
    caching for exactly the states we cannot identify."""
    return os.urandom(16).hex()


def _directory_stat_key(directory: str) -> tuple:
    """Cheap (stat-only) snapshot of the referenced device files, taken at
    network-build time so a later :meth:`NetworkModel.fingerprint` can tell
    whether the directory still holds the bytes this model executed."""
    from repro.parsers.topology_file import referenced_snapshot_files

    try:
        with open(os.path.join(directory, "topology.txt"), encoding="utf-8") as handle:
            topology_text = handle.read()
    except OSError:
        return ("unreadable-topology", os.path.abspath(directory), _error_nonce())
    stats = []
    for name in sorted(referenced_snapshot_files(topology_text)):
        try:
            stat = os.stat(os.path.join(directory, name))
            stats.append((name, stat.st_size, stat.st_mtime_ns))
        except OSError:
            stats.append((name, "unstatable", _error_nonce()))
    return ("stats", topology_text, tuple(stats))


def _directory_content_key(directory: str) -> tuple:
    """Identity of a snapshot directory's *relevant* content: the topology
    text itself plus a content hash of every device file it references.
    Files the topology never reads (JSON reports, a ``--store-dir`` placed
    in the snapshot directory) do not perturb the key — and because the
    referenced files are *hashed*, not stat'ed, a same-size in-place
    rewrite within a coarse filesystem mtime tick still invalidates.
    Hashing costs one read per device file, the same order of work as
    building the network the cached plan would otherwise skip."""
    from repro.parsers.topology_file import referenced_snapshot_files

    topology_path = os.path.join(directory, "topology.txt")
    try:
        with open(topology_path, encoding="utf-8") as handle:
            topology_text = handle.read()
    except OSError:
        # No readable topology: this directory's content has no observable
        # identity — produce a key that never matches anything (see
        # _error_nonce) instead of a constant two broken directories share.
        return (
            "unreadable-topology",
            os.path.abspath(directory),
            _error_nonce(),
        )
    digests = []
    for name in sorted(referenced_snapshot_files(topology_text)):
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            digest = f"<unreadable:{_error_nonce()}>"
        digests.append((name, digest))
    # Content only — no directory path — so byte-identical snapshots at
    # different paths (copied checkouts, run-numbered CI workspaces) share
    # one plan-cache identity against a shared store.
    return ("directory", topology_text, tuple(digests))


class NetworkModel:
    """A session handle over one network: build once, validate once, query
    many times.

    >>> model = NetworkModel.from_workload("department")     # doctest: +SKIP
    ... result = model.query(ForAllPairs(Reach), Loop())
    ... result["loop()"].holds
    """

    def __init__(self, source: SourceLike) -> None:
        if isinstance(source, Network):
            source = NetworkSource.from_network(source)
        elif isinstance(source, str):
            source = NetworkSource.from_directory(source)
        elif not isinstance(source, NetworkSource):
            raise TypeError(
                "NetworkModel takes a NetworkSource, a Network or a "
                f"directory path, not {type(source).__name__}"
            )
        self.source = source
        # The runtime-cache entry this model resolved, pinned for the
        # session: a model must keep answering for the snapshot it read even
        # after the cache's LRU evicts the entry (a rebuild could silently
        # pick up edited files under an already-computed fingerprint).
        self._runtime: Optional[Runtime] = None
        self._validation: Optional[List[str]] = None
        self._fingerprint: Optional[str] = None
        self._fingerprint_known = False
        self._build_stat_key: Optional[tuple] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_directory(cls, directory: str) -> "NetworkModel":
        """A model over a snapshot directory (topology.txt + device files)."""
        return cls(NetworkSource.from_directory(directory))

    @classmethod
    def from_workload(cls, name: str, **options: object) -> "NetworkModel":
        """A model over a registered synthetic workload (department,
        enterprise, stanford, ...)."""
        return cls(NetworkSource.from_workload(name, **options))

    @classmethod
    def from_network(cls, network: Network) -> "NetworkModel":
        """A model over an in-process network object (executes in-process:
        SEFL programs contain closures and cannot cross process boundaries)."""
        return cls(NetworkSource.from_network(network))

    # -- the once-per-model facts ----------------------------------------------

    def _resolve(self) -> Runtime:
        if self._runtime is None:
            if self.source.kind == "directory" and self.source.directory:
                # Stat-only snapshot (no content hashing — store-less runs
                # must not pay a second read of every device file): enough
                # for fingerprint() to later prove the directory still
                # holds the bytes this build executed.
                self._build_stat_key = _directory_stat_key(self.source.directory)
            self._runtime = runtime_for(self.source)
        return self._runtime

    def network(self) -> Network:
        """The built network — built exactly once per process by the
        campaign runtime cache, which this model's campaigns and their
        in-process jobs resolve through too."""
        return self._resolve().network

    def validate(self) -> List[str]:
        """``Network.validate()`` findings, computed exactly once per model."""
        if self._validation is None:
            self._validation = self.network().validate()
        return list(self._validation)

    def injection_ports(self) -> List[Tuple[str, str]]:
        """The model's default injection points — the same policy campaigns
        apply (:func:`repro.core.campaign.default_injection_ports`), so
        planned and legacy answers quantify over identical port sets."""
        runtime = self._resolve()
        return default_injection_ports(
            runtime.network, runtime.registered_injections
        )

    def describe(self) -> str:
        return self.source.describe()

    def fingerprint(self) -> Optional[str]:
        """Content identity of the model's network source, or ``None`` when
        the source has no stable identity (in-process ``Network`` objects).

        This is the model half of the persistent plan-result cache key
        (:class:`repro.store.VerificationStore`): workload sources hash the
        builder name and options; directory sources hash ``topology.txt``'s
        *content* plus the content of exactly the snapshot files it
        references — so editing the topology or any referenced device file
        invalidates the directory's cached plans, while report files or a
        store directory living alongside the snapshot do not.
        For sources whose content can change invisibly (a workload builder
        edited in place), use
        :meth:`repro.store.VerificationStore.invalidate_plans` explicitly.

        The fingerprint is computed **once per model**, lazily (store-less
        runs never pay the hashing), and it must identify the content this
        model *executes*: a model built before an in-place edit keeps
        answering for the snapshot it read, so hashing the edited files
        under the same session would file the old network's answers under
        the new content's key, poisoning the plan cache for every later
        process.  If the directory's referenced files no longer stat the
        way they did at build time, the model therefore has **no**
        fingerprint (plan caching is disabled for it) — edited the
        directory?  Make a new :class:`NetworkModel`.
        """
        if self._fingerprint_known:
            return self._fingerprint
        if self.source.picklable:
            payload: Optional[str] = None
            if self.source.kind == "directory" and self.source.directory:
                if (
                    self._build_stat_key is None
                    or self._build_stat_key
                    == _directory_stat_key(self.source.directory)
                ):
                    payload = repr(
                        ("network-model", _directory_content_key(self.source.directory))
                    )
            else:
                payload = repr(("network-model", self.source.cache_key()))
            if payload is not None:
                self._fingerprint = hashlib.sha256(payload.encode()).hexdigest()
        self._fingerprint_known = True
        return self._fingerprint

    # -- execution --------------------------------------------------------------

    def campaign(self, **kwargs) -> VerificationCampaign:
        """A :class:`VerificationCampaign` over this model, inheriting the
        model's already-computed validation (accepts every campaign kwarg)."""
        kwargs.setdefault("validation", self.validate())
        return VerificationCampaign(self.source, **kwargs)

    def query(self, *queries, workers: int = 1, store=None, baseline=None, **settings):
        """Compile a batch of declarative queries onto one shared plan and
        execute it (see :func:`repro.api.planner.compile_plan` for the
        engine-sharing semantics; ``settings`` are
        :class:`~repro.core.settings.RunSettings` fields).  Passing a
        :class:`repro.store.VerificationStore` as ``store`` makes the run
        persistent: verdicts warm-start from (and publish to) the store's
        disk shards, and a repeated identical batch is answered from the
        plan-result cache without running any engine job."""
        from repro.api.planner import compile_plan, execute_plan

        plan = compile_plan(self, queries, **settings)
        return execute_plan(plan, workers=workers, store=store, baseline=baseline)

    def __repr__(self) -> str:
        return f"NetworkModel({self.describe()})"
