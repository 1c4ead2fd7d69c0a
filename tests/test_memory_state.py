"""Tests for packet memory (header / metadata stores) and execution state."""

import pytest

from repro.core.errors import MemorySafetyError
from repro.core.memory import HeaderMemory, MetadataStore
from repro.core.state import ExecutionState
from repro.sefl.fields import IpDst, IpSrc, Tag
from repro.solver.ast import Const, Eq, Var


class TestHeaderMemory:
    def setup_method(self):
        self.memory = HeaderMemory()

    def test_allocate_write_read(self):
        self.memory.allocate(96, 32)
        self.memory.write(96, Const(7), 32)
        assert self.memory.read(96, 32) == Const(7)

    def test_read_unallocated_fails(self):
        with pytest.raises(MemorySafetyError):
            self.memory.read(96)

    def test_read_unassigned_fails(self):
        self.memory.allocate(96, 32)
        with pytest.raises(MemorySafetyError):
            self.memory.read(96)

    def test_unaligned_access_fails(self):
        self.memory.allocate(96, 32)
        self.memory.write(96, Const(1), 32)
        with pytest.raises(MemorySafetyError):
            self.memory.read(96, 16)

    def test_allocation_requires_positive_size(self):
        with pytest.raises(MemorySafetyError):
            self.memory.allocate(0, 0)

    def test_stacked_allocations_mask_and_restore(self):
        self.memory.allocate(0, 32)
        self.memory.write(0, Const(1))
        self.memory.allocate(0, 32)
        self.memory.write(0, Const(2))
        assert self.memory.read(0) == Const(2)
        self.memory.deallocate(0, 32)
        assert self.memory.read(0) == Const(1)

    def test_deallocate_size_mismatch_fails(self):
        self.memory.allocate(0, 32)
        with pytest.raises(MemorySafetyError):
            self.memory.deallocate(0, 16)

    def test_deallocate_unallocated_fails(self):
        with pytest.raises(MemorySafetyError):
            self.memory.deallocate(5)

    def test_negative_addresses_supported(self):
        # Encapsulation allocates headers in front of the packet (Figure 6).
        self.memory.allocate(-160, 32)
        self.memory.write(-160, Const(4))
        assert self.memory.read(-160) == Const(4)

    def test_history_tracks_assignments(self):
        self.memory.allocate(0, 8)
        self.memory.write(0, Const(1))
        self.memory.write(0, Const(2))
        assert self.memory.history(0) == [Const(1), Const(2)]

    def test_clone_is_independent(self):
        self.memory.allocate(0, 8)
        self.memory.write(0, Const(1))
        copy = self.memory.clone()
        copy.write(0, Const(2))
        assert self.memory.read(0) == Const(1)
        assert copy.read(0) == Const(2)

    def test_depth(self):
        self.memory.allocate(0, 8)
        self.memory.allocate(0, 8)
        assert self.memory.depth(0) == 2


class TestMetadataStore:
    def setup_method(self):
        self.store = MetadataStore()

    def test_global_allocation(self):
        self.store.allocate("key")
        self.store.write("key", Const(5))
        assert self.store.read("key") == Const(5)

    def test_local_scoping(self):
        local_key = MetadataStore.scoped_key("port", "nat1")
        self.store.allocate(local_key)
        assert self.store.resolve("port", "nat1") == local_key
        assert self.store.resolve("port", "nat2") is None

    def test_local_shadows_global(self):
        self.store.allocate("v")
        local_key = MetadataStore.scoped_key("v", "element")
        self.store.allocate(local_key)
        assert self.store.resolve("v", "element") == local_key
        assert self.store.resolve("v", None) == "v"

    def test_visible_names(self):
        self.store.allocate("g")
        self.store.allocate(MetadataStore.scoped_key("l", "e1"))
        assert self.store.visible_names("e1") == ["g", "l"]
        assert self.store.visible_names("e2") == ["g"]

    def test_deallocate_restores_previous(self):
        self.store.allocate("k")
        self.store.write("k", Const(1))
        self.store.allocate("k")
        self.store.write("k", Const(2))
        self.store.deallocate("k")
        assert self.store.read("k") == Const(1)

    def test_access_unallocated_fails(self):
        with pytest.raises(MemorySafetyError):
            self.store.read("missing")


class TestExecutionState:
    def setup_method(self):
        self.state = ExecutionState()

    def test_tag_resolution(self):
        self.state.create_tag("L3", 112)
        assert self.state.resolve_address(Tag("L3") + 96) == 208
        assert self.state.resolve_address(IpSrc) == 208

    def test_unknown_tag_fails(self):
        with pytest.raises(MemorySafetyError):
            self.state.resolve_address(Tag("L4"))

    def test_destroy_tag(self):
        self.state.create_tag("L3", 0)
        self.state.destroy_tag("L3")
        with pytest.raises(MemorySafetyError):
            self.state.tag_value("L3")

    def test_destroy_unknown_tag_fails(self):
        with pytest.raises(MemorySafetyError):
            self.state.destroy_tag("nope")

    def test_header_field_round_trip(self):
        self.state.create_tag("L3", 0)
        self.state.allocate_header(IpDst, 32)
        self.state.write_header(IpDst, Const(42))
        assert self.state.read_header(IpDst) == Const(42)

    def test_metadata_local_scope_uses_current_element(self):
        self.state.current_scope = "nat1"
        self.state.allocate_metadata("orig", local=True)
        self.state.write_metadata("orig", Const(1))
        self.state.current_scope = "nat2"
        assert not self.state.has_metadata("orig")
        self.state.current_scope = "nat1"
        assert self.state.read_metadata("orig") == Const(1)

    def test_clone_independence(self):
        self.state.create_tag("L3", 0)
        self.state.allocate_header(IpDst, 32)
        self.state.write_header(IpDst, Const(1))
        self.state.add_constraint(Eq(Var("v", 32), Const(0)))
        copy = self.state.clone()
        copy.write_header(IpDst, Const(2))
        copy.create_tag("L4", 160)
        copy.add_constraint(Eq(Var("w", 32), Const(1)))
        assert self.state.read_header(IpDst) == Const(1)
        assert "L4" not in self.state.tags
        assert len(self.state.constraints) == 1
        assert len(copy.constraints) == 2

    def test_clone_gets_fresh_path_id(self):
        copy = self.state.clone()
        assert copy.path_id != self.state.path_id
        assert copy.parent_id == self.state.path_id

    def test_variable_history(self):
        self.state.create_tag("L3", 0)
        self.state.allocate_header(IpDst, 32)
        self.state.write_header(IpDst, Const(1))
        self.state.write_header(IpDst, Const(2))
        assert self.state.variable_history(IpDst) == [Const(1), Const(2)]

    def test_summary_is_json_friendly(self):
        self.state.create_tag("L3", 0)
        self.state.allocate_header(IpDst, 32)
        self.state.write_header(IpDst, Var("v", 32))
        summary = self.state.summary()
        assert summary["tags"] == {"L3": 0}
        assert summary["status"] == "alive"
        assert "128" in summary["headers"]

    def test_fail_sets_status(self):
        self.state.fail("boom")
        assert not self.state.is_alive
        assert self.state.stop_reason == "boom"

    def test_port_snapshots(self):
        self.state.snapshot_port("a:in0")
        self.state.snapshot_port("a:in0")
        assert len(self.state.snapshots_for("a:in0")) == 2
        assert self.state.snapshots_for("b:in0") == ()


class TestCopyOnWrite:
    """Clones share structure until one side mutates; both directions of
    mutation must stay isolated."""

    def test_header_parent_mutation_does_not_leak_into_clone(self):
        memory = HeaderMemory()
        memory.allocate(96, 32)
        memory.write(96, Const(1), 32)
        copy = memory.clone()
        memory.write(96, Const(2), 32)
        assert copy.read(96, 32) == Const(1)
        assert memory.read(96, 32) == Const(2)

    def test_header_clone_mutation_does_not_leak_into_parent(self):
        memory = HeaderMemory()
        memory.allocate(96, 32)
        memory.write(96, Const(1), 32)
        copy = memory.clone()
        copy.write(96, Const(3), 32)
        copy.allocate(200, 8)
        assert memory.read(96, 32) == Const(1)
        assert not memory.is_allocated(200)
        assert copy.history(96) == [Const(1), Const(3)]
        assert memory.history(96) == [Const(1)]

    def test_header_deallocate_after_clone_is_isolated(self):
        memory = HeaderMemory()
        memory.allocate(96, 32)
        memory.allocate(96, 16)  # stacked allocation
        copy = memory.clone()
        copy.deallocate(96, 16)
        assert memory.depth(96) == 2
        assert copy.depth(96) == 1

    def test_clone_of_clone_stays_isolated(self):
        memory = HeaderMemory()
        memory.allocate(96, 32)
        memory.write(96, Const(1), 32)
        child = memory.clone()
        grandchild = child.clone()
        child.write(96, Const(2), 32)
        grandchild.write(96, Const(3), 32)
        assert memory.read(96, 32) == Const(1)
        assert child.read(96, 32) == Const(2)
        assert grandchild.read(96, 32) == Const(3)

    def test_metadata_cow_isolation(self):
        store = MetadataStore()
        store.allocate("seen")
        store.write("seen", Const(1))
        copy = store.clone()
        copy.write("seen", Const(2))
        store.allocate("other")
        assert store.read("seen") == Const(1)
        assert copy.read("seen") == Const(2)
        assert not copy.is_allocated("other")
        copy.deallocate("seen")
        assert store.is_allocated("seen")


class TestAppendLog:
    def test_append_iter_len(self):
        from repro.core.state import AppendLog

        log = AppendLog()
        assert not log
        log.append("a")
        log.append("b")
        assert len(log) == 2
        assert list(log) == ["a", "b"]

    def test_clone_shares_prefix_and_isolates_tails(self):
        from repro.core.state import AppendLog

        log = AppendLog()
        log.append("a")
        copy = log.clone()
        log.append("parent-only")
        copy.append("copy-only")
        assert list(log) == ["a", "parent-only"]
        assert list(copy) == ["a", "copy-only"]
        grandchild = copy.clone()
        copy.append("later")
        assert list(grandchild) == ["a", "copy-only"]
        assert len(grandchild) == 2

    def test_state_traces_are_cow(self):
        state = ExecutionState()
        state.record_port("a:in0")
        state.record_instruction("Assign(x)")
        copy = state.clone()
        state.record_port("b:in0")
        copy.record_port("c:in0")
        assert list(state.port_trace) == ["a:in0", "b:in0"]
        assert list(copy.port_trace) == ["a:in0", "c:in0"]
        assert list(copy.instruction_trace) == ["Assign(x)"]

    def test_port_snapshots_are_cow(self):
        state = ExecutionState()
        state.snapshot_port("a:in0")
        copy = state.clone()
        copy.snapshot_port("a:in0")
        assert len(state.snapshots_for("a:in0")) == 1
        assert len(copy.snapshots_for("a:in0")) == 2
