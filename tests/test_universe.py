"""Universe construction, the cloud operator, and raw set algebra."""

import json

import pytest

from ilattice import (
    BudgetExceededError,
    UniverseError,
    UniverseMismatchError,
    build_universe,
    load_universe,
    universe_from_dict,
    universe_to_dict,
)

from naive_oracle import SetOps


@pytest.fixture
def mixed():
    return build_universe([("x1", "m"), ("x2", "m"), ("y", "M")], [["x1", "x2"], ["y"]])


@pytest.fixture
def one_block():
    return build_universe([("x1", "m"), ("x2", "m")], [["x1", "x2"]])


class TestConstruction:
    def test_smallest_mixed_example(self, mixed):
        assert len(mixed) == 3
        assert mixed.atom_ids == ("x1", "x2", "y")
        assert mixed.blocks == (("x1", "x2"), ("y",))

    def test_classical_singleton_universe(self):
        u = build_universe([("y", "M")], [["y"]])
        assert all(q.is_closed() for q in u.subsets())

    def test_m_atom_in_nonsingleton_block_rejected(self):
        with pytest.raises(UniverseError, match="M-atom"):
            build_universe([("x1", "m"), ("y", "M")], [["x1", "y"]])

    def test_duplicate_id(self):
        with pytest.raises(UniverseError, match="duplicate"):
            build_universe([("x", "m"), ("x", "m")], [["x"]])

    def test_unknown_id_in_block(self):
        with pytest.raises(UniverseError, match="unknown id"):
            build_universe([("x", "m")], [["x", "z"]])

    def test_atom_missing_from_all_blocks(self):
        with pytest.raises(UniverseError, match="missing"):
            build_universe([("x", "m"), ("z", "m")], [["x"]])

    def test_atom_in_two_blocks(self):
        with pytest.raises(UniverseError, match="two blocks"):
            build_universe([("x", "m"), ("z", "m")], [["x", "z"], ["z"]])

    def test_bad_kind_and_empty_id(self):
        with pytest.raises(UniverseError, match="kind"):
            build_universe([("x", "q")], [["x"]])
        with pytest.raises(UniverseError, match="non-empty"):
            build_universe([("", "m")], [[""]])

    def test_empty_block_rejected(self):
        with pytest.raises(UniverseError, match="empty block"):
            build_universe([("x", "m")], [["x"], []])

    def test_normalization_is_declaration_order(self):
        u = build_universe(
            [("x1", "m"), ("x2", "m"), ("y", "M")], [["y"], ["x2", "x1"]]
        )
        assert u.blocks == (("x1", "x2"), ("y",))
        assert u.digest == '[["x1","x2"],["y"]]'


class TestCloud:
    def test_single_block_cloud(self, mixed):
        assert mixed.qset(["x1"]).cloud() == mixed.qset(["x1", "x2"])

    def test_empty_cloud(self, mixed):
        assert mixed.empty.cloud() == mixed.empty

    def test_cloud_by_pair_enumeration(self, mixed):
        # independently recompute [y : exists x in A with y ~ x]
        oracle = SetOps(mixed.atom_ids, mixed.blocks)
        for qset in mixed.subsets():
            assert frozenset(qset.cloud().members) == oracle.cloud(frozenset(qset.members))

    def test_interior_examples(self, mixed):
        assert mixed.qset(["x1", "y"]).interior() == mixed.qset(["y"])
        assert mixed.full.interior() == mixed.full
        assert mixed.empty.interior() == mixed.empty

    def test_interior_by_complement_of_cloud(self, mixed):
        oracle = SetOps(mixed.atom_ids, mixed.blocks)
        for qset in mixed.subsets():
            assert frozenset(qset.interior().members) == oracle.interior(
                frozenset(qset.members)
            )

    def test_is_closed(self, mixed):
        assert mixed.qset(["x1", "x2"]).is_closed()
        assert not mixed.qset(["x1"]).is_closed()
        assert mixed.empty.is_closed()
        assert mixed.full.is_closed()


class TestIndistinguishable:
    def test_examples(self, mixed):
        assert mixed.indistinguishable("x1", "x2")
        assert not mixed.indistinguishable("x1", "y")
        assert mixed.indistinguishable("y", "y")

    def test_unknown_id(self, mixed):
        with pytest.raises(UniverseError, match="unknown id"):
            mixed.indistinguishable("x1", "nope")


class TestSetAlgebra:
    def test_union_intersection_complement(self, mixed):
        a = mixed.qset(["x1"])
        b = mixed.qset(["x2"])
        assert a.union(b) == mixed.qset(["x1", "x2"])
        assert a.intersection(b) == mixed.empty
        assert mixed.full.complement() == mixed.empty
        assert (a | b) - a == b
        assert a.is_subset(a | b)

    def test_extensional_equality_and_hash(self, mixed):
        assert mixed.qset(["x1", "x2"]) == mixed.qset(["x2", "x1"])
        assert hash(mixed.qset(["x1"])) == hash(mixed.qset(["x1"]))
        assert mixed.qset(["x1"]) != mixed.qset(["x2"])

    def test_universe_mismatch(self, mixed, one_block):
        with pytest.raises(UniverseMismatchError):
            mixed.qset(["x1"]).union(one_block.qset(["x1"]))

    def test_membership_iteration_len(self, mixed):
        q = mixed.qset(["y", "x1"])
        assert q.members == ("x1", "y")
        assert "x1" in q and "x2" not in q
        assert len(q) == 2
        assert repr(q) == "QSet[x1, y]"

    def test_unknown_id_in_qset(self, mixed):
        with pytest.raises(UniverseError, match="unknown id"):
            mixed.qset(["zz"])


class TestEnumeration:
    def test_binary_counting_order(self, one_block):
        subsets = [q.members for q in one_block.subsets()]
        assert subsets == [(), ("x1",), ("x2",), ("x1", "x2")]

    def test_count_for_three_atoms(self, mixed):
        assert len(list(mixed.subsets())) == 8

    def test_limit_boundary(self):
        atoms = [(f"a{i}", "m") for i in range(17)]
        blocks = [[f"a{i}"] for i in range(17)]
        u = build_universe(atoms, blocks)
        with pytest.raises(BudgetExceededError, match="sampling"):
            list(u.subsets())

    def test_closed_qsets_mixed(self, mixed):
        closed = [q.members for q in mixed.closed_qsets()]
        assert closed == [(), ("x1", "x2"), ("y",), ("x1", "x2", "y")]

    def test_closed_qsets_single_block(self):
        u = build_universe(
            [("a", "m"), ("b", "m"), ("c", "m")], [["a", "b", "c"]]
        )
        assert [q.members for q in u.closed_qsets()] == [(), ("a", "b", "c")]

    def test_closed_qsets_classical(self):
        u = build_universe([("a", "M"), ("b", "M")], [["a"], ["b"]])
        assert len(u.closed_qsets()) == 4


class TestFileFormat:
    def test_round_trip(self, mixed):
        assert universe_from_dict(universe_to_dict(mixed)) == mixed

    def test_unknown_field_rejected(self, mixed):
        doc = universe_to_dict(mixed)
        doc["extra"] = 1
        with pytest.raises(UniverseError, match="unknown universe field"):
            universe_from_dict(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(UniverseError, match="missing"):
            universe_from_dict({"atoms": []})

    def test_unknown_atom_field_rejected(self, mixed):
        doc = universe_to_dict(mixed)
        doc["atoms"][0]["note"] = "hi"
        with pytest.raises(UniverseError, match="unknown atom field"):
            universe_from_dict(doc)

    def test_load_universe(self, mixed, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(universe_to_dict(mixed)))
        assert load_universe(path) == mixed

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text("{")
        with pytest.raises(UniverseError, match="malformed"):
            load_universe(path)
