"""Packet memory: header variables at bit addresses and the metadata map.

SEFL's packet layout mimics real packets (Figure 6): header fields live at
absolute bit offsets, must be allocated before use, and accesses must line up
exactly with an allocation.  Metadata entries live in a string-keyed map with
no alignment rules and may be global or local to a network element.

Both stores keep a *stack* of slots per variable: ``Allocate`` pushes a new
slot (masking the previous value, e.g. during encapsulation) and
``Deallocate`` pops it, restoring the old value.  Each slot also records its
full assignment history, which the verification layer uses for invariance and
header-visibility checks.

A store's digest is the XOR of its slots' digests, each a running hash of
its key, stack position, size and values: every mutation moves it in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Tuple, Union

from repro.core.errors import MemorySafetyError
from repro.solver.ast import Term


@dataclass(slots=True)
class Slot:
    """One allocation of a variable: its size and its value history."""

    size: Optional[int]
    values: List[Term] = field(default_factory=list)
    #: Seeded by the store with where the slot sits, extended by ``assign``.
    digest: int = field(default=0, compare=False)

    @property
    def current(self) -> Optional[Term]:
        return self.values[-1] if self.values else None

    def assign(self, term: Term) -> None:
        self.values.append(term)
        self.digest = hash((self.digest, term))

    def clone(self) -> "Slot":
        return Slot(self.size, list(self.values), self.digest)


#: The owned-key set of a store that shares every stack (just cloned, or
#: cloned from): one frozen empty set for all of them, replaced by a store's
#: own set on its first write.
_OWNS_NOTHING: AbstractSet = frozenset()


class _CowSlotStore:
    """A dict of per-key slot stacks with copy-on-write cloning.

    ``clone()`` copies only the key→stack dict (pointer copies); a stack is
    duplicated the first time either side mutates its key.  Forking a path
    is therefore O(number of keys) instead of O(total assignment history).
    Subclasses validate accesses and raise their own error messages, then
    mutate through ``_push_slot`` / ``_pop_slot`` / ``_assign_top``.
    """

    __slots__ = ("_slots", "_owned", "digest")

    def __init__(self) -> None:
        self._slots: Dict = {}
        #: XOR of every slot's digest.
        self.digest = 0
        # None: this store was never cloned and owns every stack.  Otherwise:
        # the set of keys whose stacks are private to this instance
        # (``_OWNS_NOTHING`` until the first write after a clone).
        self._owned: Optional[AbstractSet] = None

    def _claim(self, key) -> None:
        """Note that ``key``'s stack is now private to this instance."""
        if self._owned is _OWNS_NOTHING:
            self._owned = set()
        self._owned.add(key)

    def _own(self, key) -> Optional[List[Slot]]:
        """Return a privately-owned (mutable) stack for ``key``."""
        stack = self._slots.get(key)
        if stack is None:
            return None
        if self._owned is not None and key not in self._owned:
            stack = [slot.clone() for slot in stack]
            self._slots[key] = stack
            self._claim(key)
        return stack

    def _push_slot(self, key, slot: Slot) -> None:
        stack = self._own(key)
        if stack is None:
            stack = []
            self._slots[key] = stack
            if self._owned is not None:
                self._claim(key)
        slot.digest = hash((key, len(stack), slot.size))
        self.digest ^= slot.digest
        stack.append(slot)

    def _pop_slot(self, key) -> None:
        """Pop the top slot of an existing stack (caller has validated)."""
        stack = self._own(key)
        assert stack is not None
        self.digest ^= stack.pop().digest
        if not stack:
            del self._slots[key]
            if self._owned is not None:
                # _own() claimed the key, so this is a set of our own.
                self._owned.discard(key)

    def _assign_top(self, key, term: Term) -> None:
        """Assign to the top slot of an existing stack (caller has validated)."""
        stack = self._own(key)
        assert stack is not None
        top = stack[-1]
        before = top.digest
        top.assign(term)
        self.digest ^= before ^ top.digest

    def same_slots(self, other: "_CowSlotStore") -> bool:
        """Whether both stores hold equal stacks under equal keys."""
        return self._slots == other._slots

    def clone(self):
        copy = type(self).__new__(type(self))
        copy._slots = dict(self._slots)
        copy._owned = _OWNS_NOTHING
        copy.digest = self.digest
        # The parent now shares every stack with the clone, so it no longer
        # owns anything either.
        self._owned = _OWNS_NOTHING
        return copy


class HeaderMemory(_CowSlotStore):
    """Bit-addressed header variables with allocation stacks."""

    __slots__ = ()

    # -- allocation -----------------------------------------------------------

    def allocate(self, address: int, size: int) -> None:
        if size is None or size <= 0:
            raise MemorySafetyError(
                f"header allocation at {address} requires a positive size"
            )
        self._push_slot(address, Slot(size))

    def deallocate(self, address: int, size: Optional[int] = None) -> None:
        stack = self._slots.get(address)
        if not stack:
            raise MemorySafetyError(
                f"deallocating unallocated header address {address}"
            )
        top = stack[-1]
        if size is not None and top.size != size:
            raise MemorySafetyError(
                f"deallocation size {size} does not match allocated size "
                f"{top.size} at address {address}"
            )
        self._pop_slot(address)

    # -- access ---------------------------------------------------------------

    def _top(self, address: int, width: Optional[int]) -> Slot:
        stack = self._slots.get(address)
        if not stack:
            raise MemorySafetyError(
                f"access to unallocated header address {address}"
            )
        top = stack[-1]
        if width is not None and top.size is not None and top.size != width:
            raise MemorySafetyError(
                f"unaligned access at address {address}: allocated size "
                f"{top.size}, accessed as {width} bits"
            )
        return top

    def read(self, address: int, width: Optional[int] = None) -> Term:
        slot = self._top(address, width)
        if slot.current is None:
            raise MemorySafetyError(
                f"read of allocated but never-assigned header address {address}"
            )
        return slot.current

    def write(self, address: int, term: Term, width: Optional[int] = None) -> None:
        self._top(address, width)  # validates allocation and alignment
        self._assign_top(address, term)

    def history(self, address: int) -> List[Term]:
        """Assignment history of the *current* allocation of ``address``."""
        return list(self._top(address, None).values)

    def depth(self, address: int) -> int:
        """Number of stacked allocations at ``address``."""
        return len(self._slots.get(address, ()))

    def addresses(self) -> List[int]:
        return sorted(self._slots)

MetaKey = Union[str, Tuple[str, str]]


class MetadataStore(_CowSlotStore):
    """String-keyed metadata map with global / element-local scoping."""

    __slots__ = ()

    @staticmethod
    def scoped_key(name: str, scope: Optional[str]) -> MetaKey:
        return (scope, name) if scope else name

    # -- allocation -----------------------------------------------------------

    def allocate(self, key: MetaKey, size: Optional[int] = None) -> None:
        self._push_slot(key, Slot(size))

    def deallocate(self, key: MetaKey, size: Optional[int] = None) -> None:
        stack = self._slots.get(key)
        if not stack:
            raise MemorySafetyError(f"deallocating unallocated metadata {key!r}")
        top = stack[-1]
        if size is not None and top.size is not None and top.size != size:
            raise MemorySafetyError(
                f"deallocation size {size} does not match allocated size "
                f"{top.size} for metadata {key!r}"
            )
        self._pop_slot(key)

    # -- access ---------------------------------------------------------------

    def resolve(self, name: str, scope: Optional[str]) -> Optional[MetaKey]:
        """Find the visible key for ``name``: local to ``scope`` first, then
        global."""
        if scope is not None and (scope, name) in self._slots:
            return (scope, name)
        if name in self._slots:
            return name
        return None

    def _top(self, key: MetaKey) -> Slot:
        stack = self._slots.get(key)
        if not stack:
            raise MemorySafetyError(f"access to unallocated metadata {key!r}")
        return stack[-1]

    def read(self, key: MetaKey) -> Term:
        slot = self._top(key)
        if slot.current is None:
            raise MemorySafetyError(
                f"read of allocated but never-assigned metadata {key!r}"
            )
        return slot.current

    def write(self, key: MetaKey, term: Term) -> None:
        self._top(key)  # validates allocation
        self._assign_top(key, term)

    def history(self, key: MetaKey) -> List[Term]:
        return list(self._top(key).values)

    def keys(self) -> List[MetaKey]:
        return list(self._slots)

    def visible_names(self, scope: Optional[str]) -> List[str]:
        """All metadata names visible from ``scope`` (local + global)."""
        names = set()
        for key in self._slots:
            if isinstance(key, tuple):
                if key[0] == scope:
                    names.add(key[1])
            else:
                names.add(key)
        return sorted(names)
