"""Parahoric quotient tables, checked against hand-computed cases."""

import doctest
import gc
import hashlib
import itertools
import weakref

import pytest

from cuspred import groups
from cuspred.cli import group_from_obj
from cuspred.ffpoly import FieldSpec
from cuspred.groups import (
    FiniteFactor,
    GroupSpec,
    ParahoricSpec,
    component_group_order,
    dual_dimension,
    enumerate_parahorics,
    mirror,
    parahoric_of,
)
from cuspred.selfcheck import iter_group_specs

F3 = FieldSpec(3)
F9Q = FieldSpec(3, 2, "quadratic")


def factor_strs(parahoric):
    return tuple(str(f) for f in parahoric.factors)


class TestGroupSpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            GroupSpec("Sp", 6, 3, (0, 0), F9Q)  # wrong involution
        with pytest.raises(ValueError):
            GroupSpec("Sp", 7, 3, (1, 0), F3)
        with pytest.raises(ValueError):
            GroupSpec("SOeven", 2, 1, (0, 0), F3)  # split SO(2)
        with pytest.raises(ValueError):
            GroupSpec("SOodd", 8, 3, (1, 1), F3)  # even dim, bad split
        with pytest.raises(ValueError):
            GroupSpec("SOeven", 8, 3, (0, 2), F3, epsilon=1)
        with pytest.raises(ValueError):
            GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=0)
        with pytest.raises(ValueError):
            GroupSpec("Uram", 14, 6, (0, 2), F3, epsilon=1)  # aniso on wrong slot
        with pytest.raises(ValueError):
            GroupSpec("Uram", 13, 6, (0, 0), F3, epsilon=1)  # parity mismatch
        with pytest.raises(ValueError):
            GroupSpec("Uunram", 14, 6, (2, 0), F9Q)

    def test_grid_is_pinned(self):
        # Every input of a grid around the valid groups, valid or not, pinned
        # by digest: the refusal message, or the group's name, slot kinds,
        # dual dimension and each parahoric's name, maximality, factors and
        # component group order.
        h = hashlib.sha256()
        valid = 0
        grid = itertools.product(("Sp", "SOodd", "SOeven", "Uunram", "Uram", "GL"),
                                 (F3, F9Q), range(-1, 24), range(-1, 12),
                                 range(-1, 4), range(-1, 4), range(-1, 3))
        for family, field, dim, witt, a1, a2, epsilon in grid:
            try:
                G = GroupSpec(family, dim, witt, (a1, a2), field, epsilon)
            except ValueError as exc:
                h.update(f"{exc}\n".encode())
                continue
            valid += 1
            parts = [str(G), *G.slot_kinds, str(dual_dimension(G))]
            for P in enumerate_parahorics(G):
                parts += [str(P), str(P.maximal), *factor_strs(P),
                          str(component_group_order(P))]
            h.update(("|".join(parts) + "\n").encode())
        assert valid == 224
        assert h.hexdigest()[:16] == "7384392c15591de2"

    def test_dual_dimension(self):
        assert dual_dimension(GroupSpec("Sp", 6, 3, (0, 0), F3)) == 7
        assert dual_dimension(GroupSpec("SOodd", 5, 2, (0, 1), F3)) == 4
        assert dual_dimension(GroupSpec("SOeven", 8, 4, (0, 0), F3)) == 8
        assert dual_dimension(GroupSpec("Uunram", 7, 3, (1, 0), F9Q)) == 7
        assert dual_dimension(GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=1)) == 14
        # Built separately from the same values: one object.
        a = GroupSpec("Uram", 14, 6, (2, 0), FieldSpec(3), epsilon=1)
        b = GroupSpec("Uram", 14, 6, (2, 0), FieldSpec(3), epsilon=1)
        assert a is b


class TestOneObjectPerValue:
    """Fields, factors, groups and parahorics have one object per value,
    however the value is spelled: == and hash are identity."""

    def test_spellings_of_a_field_and_a_factor(self):
        assert FieldSpec(3) is FieldSpec(3, 1, "trivial") is FieldSpec(p=3)
        assert FiniteFactor("SOeven", 10, sign=1) is FiniteFactor("SOeven", 10, 1)

    def test_two_parses_of_a_group(self):
        short = {"family": "Uram", "witt_index": 6, "aniso": [2, 0], "epsilon": 1,
                 "field": {"p": 3}}
        spelled = {"field": {"ext": "trivial", "e": 1, "p": 3}, "epsilon": 1,
                   "aniso": [2, 0], "witt_index": 6, "family": "Uram"}
        group = group_from_obj(short)
        assert group is group_from_obj(spelled)
        assert group is GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=1)

    def test_mirror_and_vertices(self):
        for group in iter_group_specs((3, 5), 6):
            assert mirror(mirror(group)) is group, str(group)
            for vertex in enumerate_parahorics(group):
                dual_dims = tuple(f.dual_dim for f in vertex.factors)
                assert parahoric_of(group, dual_dims) is vertex, str(vertex)

    def test_bad_arguments(self):
        with pytest.raises(TypeError):
            FieldSpec(3, exponent=1)
        with pytest.raises(TypeError):
            GroupSpec("Sp", 6, 3, (0, 0), F3, eps=0)
        with pytest.raises(TypeError):
            ParahoricSpec(GroupSpec("Sp", 6, 3, (0, 0), F3), 3)

    def test_a_refused_value_is_not_stored(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="split orthogonal group is excluded"):
                GroupSpec("SOeven", 2, 1, (0, 0), F3)
            with pytest.raises(ValueError, match="p must be an odd prime"):
                FieldSpec(9)

    def test_values_are_held_weakly(self):
        ref = weakref.ref(GroupSpec("Sp", 1998, 999, (0, 0), F3))
        gc.collect()
        assert ref() is None


class TestFactorTables:
    def test_symplectic(self):
        G = GroupSpec("Sp", 6, 3, (0, 0), F3)
        P = ParahoricSpec(G, 2, 1)
        assert factor_strs(P) == ("Sp(4)", "Sp(2)")
        assert tuple(f.dual_dim for f in P.factors) == (5, 3)
        assert tuple(f.kind for f in P.factors) == ("Sp", "Sp")

    def test_even_orthogonal_split(self):
        G = GroupSpec("SOeven", 8, 4, (0, 0), F3)
        assert factor_strs(ParahoricSpec(G, 4, 0)) == ("SO+(8)", "SO+(0)")
        assert factor_strs(ParahoricSpec(G, 2, 2)) == ("SO+(4)", "SO+(4)")

    def test_even_orthogonal_minus_ends(self):
        G = GroupSpec("SOeven", 20, 8, (2, 2), F3)
        P = ParahoricSpec(G, 4, 4)
        assert factor_strs(P) == ("SO-(10)", "SO-(10)")
        assert tuple(f.dual_dim for f in P.factors) == (10, 10)

    def test_even_orthogonal_odd_ends(self):
        G = GroupSpec("SOeven", 12, 5, (1, 1), F3)
        P = ParahoricSpec(G, 3, 2)
        assert factor_strs(P) == ("SO(7)", "SO(5)")
        assert tuple(f.kind for f in P.factors) == ("SOodd", "SOodd")
        assert tuple(f.dual_dim for f in P.factors) == (6, 4)

    def test_odd_orthogonal(self):
        G = GroupSpec("SOodd", 5, 2, (0, 1), F3)
        P = ParahoricSpec(G, 2, 0)
        assert factor_strs(P) == ("SO+(4)", "SO(1)")
        assert tuple(f.dual_dim for f in P.factors) == (4, 0)
        G2 = GroupSpec("SOodd", 5, 2, (1, 0), F3)
        assert factor_strs(ParahoricSpec(G2, 1, 1)) == ("SO(3)", "SO+(2)")

    def test_unramified_unitary(self):
        G = GroupSpec("Uunram", 7, 3, (1, 0), F9Q)
        P = ParahoricSpec(G, 1, 2)
        assert factor_strs(P) == ("U(3)", "U(4)")
        assert tuple(f.kind for f in P.factors) == ("U", "U")

    def test_ramified_unitary_both_signs(self):
        Gp = GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=1)
        assert factor_strs(ParahoricSpec(Gp, 0, 6)) == ("SO-(2)", "Sp(12)")
        assert factor_strs(ParahoricSpec(Gp, 6, 0)) == ("SO-(14)", "Sp(0)")
        Gm = GroupSpec("Uram", 14, 7, (0, 0), F3, epsilon=-1)
        assert factor_strs(ParahoricSpec(Gm, 3, 4)) == ("Sp(6)", "SO+(8)")
        Godd = GroupSpec("Uram", 7, 3, (1, 0), F3, epsilon=1)
        assert factor_strs(ParahoricSpec(Godd, 2, 1)) == ("SO(5)", "Sp(2)")
        assert tuple(f.kind for f in ParahoricSpec(Godd, 2, 1).factors) == ("SOodd", "Sp")

    def test_dual_dim_sums(self):
        # The two factor dual dimensions always add to the same total,
        # depending on the family only through a fixed offset.
        cases = [
            (GroupSpec("Sp", 8, 4, (0, 0), F3), lambda g: dual_dimension(g) + 1),
            (GroupSpec("SOodd", 9, 4, (1, 0), F3), dual_dimension),
            (GroupSpec("SOodd", 9, 3, (2, 1), F3), dual_dimension),
            (GroupSpec("SOeven", 10, 5, (0, 0), F3), dual_dimension),
            (GroupSpec("SOeven", 10, 4, (2, 0), F3), dual_dimension),
            (GroupSpec("SOeven", 10, 3, (2, 2), F3), dual_dimension),
            (GroupSpec("SOeven", 10, 4, (1, 1), F3), lambda g: dual_dimension(g) - 2),
            (GroupSpec("Uunram", 9, 4, (1, 0), F9Q), dual_dimension),
            (GroupSpec("Uunram", 8, 3, (1, 1), F9Q), dual_dimension),
            (GroupSpec("Uram", 8, 4, (0, 0), F3, epsilon=1), lambda g: dual_dimension(g) + 1),
            (GroupSpec("Uram", 8, 3, (2, 0), F3, epsilon=1), lambda g: dual_dimension(g) + 1),
            (GroupSpec("Uram", 9, 4, (1, 0), F3, epsilon=1), dual_dimension),
            (GroupSpec("Uram", 9, 4, (0, 1), F3, epsilon=-1), dual_dimension),
        ]
        for group, expect in cases:
            for P in enumerate_parahorics(group):
                total = sum(f.dual_dim for f in P.factors)
                assert total == expect(group), str(P)


class TestParahorics:
    def test_chain_shape(self):
        G = GroupSpec("Sp", 6, 3, (0, 0), F3)
        chain = enumerate_parahorics(G)
        assert [(P.n1, P.n2) for P in chain] == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert all(P.maximal for P in chain)

    def test_split_so2_is_not_maximal(self):
        G = GroupSpec("SOeven", 8, 4, (0, 0), F3)
        flags = {(P.n1, P.n2): P.maximal for P in enumerate_parahorics(G)}
        assert flags == {(4, 0): True, (3, 1): False, (2, 2): True,
                         (1, 3): False, (0, 4): True}
        Gram = GroupSpec("Uram", 8, 4, (0, 0), F3, epsilon=1)
        flags = {(P.n1, P.n2): P.maximal for P in enumerate_parahorics(Gram)}
        assert flags[(1, 3)] is False and flags[(0, 4)] is True

    def test_parahoric_of_matches_the_chain(self):
        # The arithmetic solve against the chain: every pair of factor dual
        # dimensions below the group's dual dimension plus 3 names the
        # vertex with those dual dimensions, or None when there is none.
        for group in iter_group_specs((3, 5), 18):
            chain = {tuple(f.dual_dim for f in P.factors): P for P in enumerate_parahorics(group)}
            top = dual_dimension(group) + 3
            assert max(itertools.chain.from_iterable(chain)) < top
            for dims in itertools.product(range(top), repeat=2):
                assert parahoric_of(group, dims) == chain.get(dims), (str(group), dims)

    def test_equal_slots_share_their_factor(self):
        # A slot factor is built once per (kind, dim, sign): vertices of
        # different groups with equal slots hold the same object.
        sp6 = ParahoricSpec(GroupSpec("Sp", 6, 3, (0, 0), F3), 3, 0)
        sp10 = ParahoricSpec(GroupSpec("Sp", 10, 5, (0, 0), FieldSpec(5)), 2, 3)
        assert sp6.factors[0] is sp10.factors[1]
        assert sp6.factors[1] == FiniteFactor("Sp", 0)
        so8 = ParahoricSpec(GroupSpec("SOeven", 8, 3, (0, 2), F3), 1, 2)
        so12 = ParahoricSpec(GroupSpec("SOeven", 12, 4, (2, 2), F3), 2, 2)
        assert so8.factors[1] is so12.factors[1]
        assert str(so8.factors[1]) == "SO-(6)"

    def test_mirror_reverses_every_vertex(self):
        # The mirror form is the group read from its other end: every vertex
        # (n1, n2) is the mirror's (n2, n1) with its factors in reverse
        # order, and mirroring twice gives the group back.
        forms = set(iter_group_specs((3, 5), 18))
        for group in forms:
            mirrored = groups.mirror(group)
            assert mirrored in forms and groups.mirror(mirrored) == group, str(group)
            assert mirrored.slot_kinds == group.slot_kinds[::-1]
            for P in enumerate_parahorics(group):
                flipped = ParahoricSpec(mirrored, P.n2, P.n1)
                assert flipped.factors == P.factors[::-1] and flipped.maximal == P.maximal
                assert component_group_order(flipped) == component_group_order(P)

    def test_component_group_order(self):
        Sp6 = GroupSpec("Sp", 6, 3, (0, 0), F3)
        assert component_group_order(ParahoricSpec(Sp6, 2, 1)) == 1
        SO8 = GroupSpec("SOeven", 8, 4, (0, 0), F3)
        assert component_group_order(ParahoricSpec(SO8, 4, 0)) == 1
        assert component_group_order(ParahoricSpec(SO8, 2, 2)) == 2
        SO5 = GroupSpec("SOodd", 5, 2, (0, 1), F3)
        assert component_group_order(ParahoricSpec(SO5, 2, 0)) == 2
        U14 = GroupSpec("Uram", 14, 6, (2, 0), F3, epsilon=1)
        assert component_group_order(ParahoricSpec(U14, 0, 6)) == 2
        Um = GroupSpec("Uram", 6, 3, (0, 0), F3, epsilon=-1)
        assert component_group_order(ParahoricSpec(Um, 3, 0)) == 1
        assert component_group_order(ParahoricSpec(Um, 0, 3)) == 2
        Uun = GroupSpec("Uunram", 8, 4, (0, 0), F9Q)
        assert component_group_order(ParahoricSpec(Uun, 2, 2)) == 1

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            FiniteFactor("Sp", 3)
        with pytest.raises(ValueError):
            FiniteFactor("SOeven", 4)
        with pytest.raises(ValueError):
            FiniteFactor("SOodd", 3, sign=1)
        with pytest.raises(ValueError):
            FiniteFactor("SOeven", 0, sign=-1)


def test_doctests():
    failures, _ = doctest.testmod(groups)
    assert failures == 0
