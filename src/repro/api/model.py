"""The :class:`NetworkModel` facade — one front door to the analysis stack.

A ``NetworkModel`` wraps a network *source* (a §7.1 snapshot directory, a
registered synthetic workload, or an in-process
:class:`~repro.network.topology.Network`) and owns everything that should
happen exactly once per network, no matter how many campaigns or query
batches run against it:

* building the network (resolved through the per-process campaign runtime
  cache, so the model, its campaigns and their in-process jobs share one
  build);
* ``Network.validate()`` — the findings are a fact of the build, computed
  once on its runtime-cache entry, so CLI, API and campaign warnings are
  identical and nothing is re-validated per construction site;
* the default injection ports (the workload's registered entry points, or
  every free input port, or — for fully wired rings — every input port).

Ask questions with :meth:`NetworkModel.query`, which compiles a batch of
declarative :mod:`repro.api.queries` objects onto one shared campaign plan
(see :mod:`repro.api.planner`), or drop down to :meth:`campaign` for the raw
:class:`~repro.core.campaign.VerificationCampaign` machinery.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple, Union

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    default_injection_ports,
)
from repro.core.jobs import Runtime, runtime_for
from repro.network.topology import Network

SourceLike = Union[NetworkSource, Network, str]


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
        # pick up edited files).
        self._runtime: Optional[Runtime] = None

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
            self._runtime = runtime_for(self.source)
        return self._runtime

    def network(self) -> Network:
        """The built network — built exactly once per process by the
        campaign runtime cache, which this model's campaigns and their
        in-process jobs resolve through too."""
        return self._resolve().network

    def validate(self) -> List[str]:
        """``Network.validate()`` findings, computed exactly once per build."""
        return list(self._resolve().validation)

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
        """Content identity of the network this model executes, or ``None``
        when it has none (in-process ``Network`` objects).

        This is the model half of the persistent plan-result cache key
        (:class:`repro.store.VerificationStore`).  Workload sources hash the
        builder name and options (for a builder edited in place, use
        :meth:`repro.store.VerificationStore.invalidate_plans`).  Directory
        sources report what their build recorded
        (:attr:`~repro.core.jobs.Runtime.content_digest`): ``topology.txt``'s
        text plus a digest of exactly the snapshot files it references, taken
        from the bytes the build parsed — so asking builds the network (or
        raises what :meth:`network` raises: an unreadable directory has no
        build and so no fingerprint).  It is therefore the identity of the
        bytes this model *executes* by construction: a model built before an
        in-place edit keeps the fingerprint of what it built, a model built
        after it has the edited bytes' fingerprint, and neither can file one
        content's answers under the other's key.  Report files or a store
        directory living alongside the snapshot are not part of it.
        """
        if not self.source.picklable:
            return None
        if self.source.kind == "directory":
            return self._resolve().content_digest
        payload = repr(("network-model", self.source.cache_key()))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- execution --------------------------------------------------------------

    def campaign(self, **kwargs) -> VerificationCampaign:
        """A :class:`VerificationCampaign` over this model's source, sharing
        its build and validation findings (accepts every campaign kwarg)."""
        return VerificationCampaign(self.source, **kwargs)

    def query(self, *queries, workers: int = 1, store=None, baseline=None, **settings):
        """Compile a batch of declarative queries onto one shared plan and
        execute it (see :func:`repro.api.planner.compile_plan` for the
        engine-sharing semantics; ``settings`` are
        :class:`~repro.core.settings.RunSettings` fields).  Passing a
        :class:`repro.store.VerificationStore` as ``store`` makes the run
        persistent: verdicts warm-start from (and publish to) the store's
        verdict records, and a repeated identical batch is answered from the
        plan-result cache without running any engine job."""
        from repro.api.planner import compile_plan, execute_plan

        plan = compile_plan(self, queries, **settings)
        return execute_plan(plan, workers=workers, store=store, baseline=baseline)

    def __repr__(self) -> str:
        return f"NetworkModel({self.describe()})"
