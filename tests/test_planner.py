"""Diagram validation, plan optimality, execution, and map application."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttspectral import planner as pl
from ttspectral.errors import BindingError, DomainError, ShapeError
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.schemes import SCHEMES
from ttspectral.spectrum_modes import IDENTITY, LEARNED

from helpers import (
    brute_force_min_cost,
    one_shot_einsum,
    random_chain_diagram,
    subset_dp_plan,
)


def assert_plan_structure(diagram, cplan):
    """Every node enters exactly once, steps consume every edge exactly
    once, flops add up, and the final dims equal the open legs."""
    merged = [frozenset(s.left) | frozenset(s.right) for s in cplan.steps]
    assert merged[-1] == frozenset(range(len(diagram.nodes)))
    seen_axes = []
    for step in cplan.steps:
        ids_left = set()
        for i in step.left:
            ids_left.update(diagram.node_axis_ids[i])
        ids_right = set()
        for i in step.right:
            ids_right.update(diagram.node_axis_ids[i])
        seen_axes.extend(sorted(ids_left & ids_right))
    assert sorted(seen_axes) == list(range(len(diagram.edges)))
    assert cplan.total_flops == sum(s.flops for s in cplan.steps)
    assert sorted(cplan.steps[-1].result_axes) == \
        sorted(diagram.output_axis_ids)
    sizes = diagram.axis_sizes
    assert cplan.steps[-1].result_dims == tuple(
        sizes[a] for a in cplan.steps[-1].result_axes
    )


def step_pairs(cplan):
    return tuple((s.left, s.right) for s in cplan.steps)


def library_diagram(scheme, d_out, d_in, r, spectrum, d_x):
    view = SCHEMES[scheme].template(d_out, d_in, r, spectrum).chain
    return pl.sttp_diagram(view.out_factors, view.in_factors, view.ranks, d_x)


_ORACLE: dict = {}


def cached_subset_dp_plan(diagram):
    key = diagram.signature()
    if key not in _ORACLE:
        _ORACLE[key] = subset_dp_plan(diagram)
    return _ORACLE[key]


class TestDiagramValidation:
    @pytest.mark.parametrize("dims", [(3.5, 2), (2, 2.0), (True, 2)])
    def test_non_integer_node_dims_rejected(self, dims):
        with pytest.raises(DomainError, match="must be an integer"):
            pl.DiagramNode(dims)

    def test_double_edge_on_axis_rejected(self):
        nodes = [pl.DiagramNode((2, 2)), pl.DiagramNode((2,)),
                 pl.DiagramNode((2,))]
        with pytest.raises(ShapeError):
            pl.TensorDiagram(nodes, [(0, 0, 1, 0), (0, 0, 2, 0)], [(0, 1)])

    def test_edge_within_one_node_rejected(self):
        with pytest.raises(ShapeError, match="two axes of node 0"):
            pl.TensorDiagram([pl.DiagramNode((3, 3, 2))], [(0, 0, 0, 1)],
                             [(0, 2)])

    def test_size_mismatch_rejected(self):
        nodes = [pl.DiagramNode((2,)), pl.DiagramNode((3,))]
        with pytest.raises(ShapeError):
            pl.TensorDiagram(nodes, [(0, 0, 1, 0)], [])

    def test_disconnected_rejected(self):
        nodes = [pl.DiagramNode((2, 2)), pl.DiagramNode((3, 3))]
        with pytest.raises(ShapeError):
            pl.TensorDiagram(nodes, [], [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_missing_output_leg_rejected(self):
        nodes = [pl.DiagramNode((2, 3)), pl.DiagramNode((3,))]
        with pytest.raises(ShapeError):
            pl.TensorDiagram(nodes, [(0, 1, 1, 0)], [])

    @pytest.mark.parametrize("out_factors, in_factors, side", [
        ((), (4,), "out_factors"), ((4,), (), "in_factors")])
    def test_chain_with_an_empty_side_rejected(self, out_factors, in_factors,
                                               side):
        with pytest.raises(ShapeError, match=f"{side} is empty"):
            pl.sttp_diagram(out_factors, in_factors, (1, 1), 1)

    @pytest.mark.parametrize("n", [17, 26])
    def test_long_path_diagrams_plan(self, n):
        nodes = [pl.DiagramNode((2, 2)) for _ in range(n)]
        edges = [(i, 1, i + 1, 0) for i in range(n - 1)]
        output = [(0, 0), (n - 1, 1)]
        diagram = pl.TensorDiagram(nodes, edges, output)
        cplan = pl.plan(diagram)
        assert_plan_structure(diagram, cplan)
        rng = np.random.default_rng(n)
        data = {i: rng.standard_normal((2, 2)) for i in range(n)}
        want = one_shot_einsum(diagram, data)
        got = pl.execute(cplan, data)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestPlanOptimality:
    def test_svdp_diagram_flops_708(self):
        diagram = pl.svdp_diagram(16, 72, 4, 1)
        cplan = pl.plan(diagram)
        # closed form: r * (2 d_in + 2 d_out + 1)
        assert cplan.total_flops == 4 * (2 * 72 + 2 * 16 + 1) == 708

    def test_naive_decompress_cost(self):
        p = random_svdp_params(16, 72, 4, LEARNED, 0)
        # r*min + 2*r*dout*din, plus the dense apply
        assert pl.naive_flops(p, 1) == (4 * 16 + 2 * 4 * 16 * 72) + \
            2 * 16 * 72 == 9280 + 2304 == 11584

    def test_two_node_diagram_single_step(self):
        nodes = [pl.DiagramNode((3, 4)), pl.DiagramNode((4, 2))]
        diagram = pl.TensorDiagram(nodes, [(0, 1, 1, 0)], [(0, 0), (1, 1)])
        cplan = pl.plan(diagram)
        assert len(cplan.steps) == 1
        assert cplan.total_flops == 2 * 3 * 4 * 2

    @pytest.mark.parametrize("closed_form_shape", [
        (16, 72, 4), (10, 30, 2), (40, 9, 3), (25, 25, 5),
    ])
    def test_closed_form_in_low_rank_regime(self, closed_form_shape):
        d_out, d_in, r = closed_form_shape
        assert r < min(d_out, d_in) / 2
        cplan = pl.plan(pl.svdp_diagram(d_out, d_in, r, 1))
        assert cplan.total_flops == r * (2 * d_in + 2 * d_out + 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        diagram = random_chain_diagram(rng, n, with_diagonal=seed % 3 == 0)
        assert pl.plan(diagram).total_flops == brute_force_min_cost(diagram)

    def test_svdp_diagram_exhaustive(self):
        for d_x in (1, 7, 64):
            diagram = pl.svdp_diagram(6, 9, 2, d_x)
            assert pl.plan(diagram).total_flops == \
                brute_force_min_cost(diagram)

    def test_plan_never_beats_dense_oracle_cost(self):
        for d_x in (1, 7, 64):
            p = random_svdp_params(16, 72, 4, LEARNED, 1)
            cplan = pl.plan(pl.svdp_diagram(16, 72, 4, d_x))
            assert cplan.total_flops <= pl.naive_flops(p, d_x)

    def test_deterministic(self):
        a = pl.plan(pl.svdp_diagram(8, 12, 3, 5))
        b = pl.plan(pl.svdp_diagram(8, 12, 3, 5))
        assert a.steps == b.steps

    def test_plan_structure_invariants(self):
        for diagram in (pl.svdp_diagram(6, 9, 2, 3),
                        random_chain_diagram(np.random.default_rng(5), 6)):
            assert_plan_structure(diagram, pl.plan(diagram))


class TestAgainstSubsetDp:
    """The planner's search against the exact DP over every subset."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_chains_identical(self, seed):
        # up to EXHAUSTIVE_NODES every binary tree is searched
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, pl.EXHAUSTIVE_NODES + 1))
        diagram = random_chain_diagram(rng, n, with_diagonal=seed % 2 == 0)
        cplan = pl.plan(diagram)
        assert (cplan.total_flops, step_pairs(cplan)) == \
            subset_dp_plan(diagram)

    @pytest.mark.parametrize("d_x", [1, 7, 64])
    @pytest.mark.parametrize("spectrum", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("shape", [(16, 12), (16, 72), (24, 36),
                                       (32, 32)])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_library_chains_identical(self, scheme, shape, spectrum, d_x):
        diagram = library_diagram(scheme, *shape, 4, spectrum, d_x)
        if scheme == "sttp":
            assert 9 <= len(diagram.nodes) <= 12
        cplan = pl.plan(diagram)
        assert (cplan.total_flops, step_pairs(cplan)) == \
            cached_subset_dp_plan(diagram)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_large_random_chains(self, n):
        # above EXHAUSTIVE_NODES only runs of consecutive nodes are tried,
        # so the cost may exceed the exact optimum, never undercut it
        rng = np.random.default_rng(n)
        diagram = random_chain_diagram(rng, n, with_diagonal=n % 2 == 0)
        cplan = pl.plan(diagram)
        assert cplan.total_flops >= subset_dp_plan(diagram)[0]
        assert_plan_structure(diagram, cplan)
        data = {i: rng.standard_normal(node.dims[:1] if node.diagonal
                                       else node.dims)
                for i, node in enumerate(diagram.nodes)}
        want = one_shot_einsum(diagram, data)
        got = pl.execute(cplan, data)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def runs(leaves):
    """Sorted leaf ids as runs of consecutive ids: (0, 1, 2, 5) -> "0-2,5"."""
    out, start = [], leaves[0]
    for a, b in zip(leaves, leaves[1:] + (None,)):
        if b != a + 1:
            out.append(str(a) if start == a else f"{start}-{a}")
            start = b
    return ",".join(out)


# sttp d x d rank r at d_x: (nodes, total_flops, steps as left|right runs),
# recorded from the connected-pair search over edges (DPccp, Moerkotte &
# Neumann, VLDB 2006) that the run search replaced
GOLDEN_PLANS = {
    (128, 4, 1): (16, 4612, (
        "0|1 0-1|2 0-2|3 13|14 12|13-14 11|12-14 11-14|15 10|11-15 "
        "9|10-15 8|9-15 7|8-15 6|7-15 5|6-15 4|5-15 0-3|4-15")),
    (128, 4, 64): (16, 144032, (
        "0|1 0-1|2 0-2|3 0-3|4 5|6 0-4|5-6 7|8 7-8|9 7-9|10 13|14 "
        "12|13-14 11|12-14 7-10|11-14 7-14|15 0-6|7-15")),
    (256, 8, 1): (18, 21128, (
        "0|1 0-1|2 0-2|3 15|16 14|15-16 13|14-16 13-16|17 12|13-17 "
        "11|12-17 10|11-17 9|10-17 8|9-17 7|8-17 6|7-17 5|6-17 4|5-17 "
        "0-3|4-17")),
    (256, 8, 64): (18, 611584, (
        "0|1 0-1|2 0-2|3 0-3|4 5|6 0-4|5-6 7|8 10|11 15|16 14|15-16 "
        "13|14-16 12|13-16 10-11|12-16 10-16|17 9|10-17 7-8|9-17 "
        "0-6|7-17")),
    (1024, 16, 1): (22, 171152, (
        "0|1 0-1|2 0-2|3 0-3|4 19|20 18|19-20 17|18-20 16|17-20 "
        "16-20|21 15|16-21 14|15-21 13|14-21 12|13-21 11|12-21 10|11-21 "
        "9|10-21 8|9-21 7|8-21 6|7-21 5|6-21 0-4|5-21")),
    (1024, 16, 64): (22, 4957824, (
        "0|1 0-1|2 0-2|3 0-3|4 0-4|5 6|7 0-5|6-7 8|9 10|11 10-11|12 "
        "13|14 19|20 18|19-20 17|18-20 16|17-20 15|16-20 13-14|15-20 "
        "13-20|21 10-12|13-21 8-9|10-21 0-7|8-21")),
    (4096, 16, 1): (26, 498832, (
        "0|1 0-1|2 0-2|3 0-3|4 0-4|5 23|24 22|23-24 21|22-24 20|21-24 "
        "19|20-24 19-24|25 18|19-25 17|18-25 16|17-25 15|16-25 14|15-25 "
        "13|14-25 12|13-25 11|12-25 10|11-25 9|10-25 8|9-25 7|8-25 "
        "6|7-25 0-5|6-25")),
    (4096, 16, 64): (26, 18327168, (
        "0|1 0-1|2 0-2|3 0-3|4 0-4|5 0-5|6 7|8 0-6|7-8 9|10 9-10|11 "
        "12|13 12-13|14 12-14|15 16|17 16-17|18 23|24 22|23-24 21|22-24 "
        "20|21-24 19|20-24 16-18|19-24 16-24|25 12-15|16-25 9-11|12-25 "
        "0-8|9-25")),
}


class TestGoldenPlans:
    """Plans of the chain diagrams sttp exists for, pinned step by step."""

    @pytest.mark.parametrize("spectrum", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("case", sorted(GOLDEN_PLANS))
    def test_sttp_chain_plans(self, case, spectrum):
        d, r, d_x = case
        nodes, total_flops, steps = GOLDEN_PLANS[case]
        diagram = library_diagram("sttp", d, d, r, spectrum, d_x)
        assert len(diagram.nodes) == nodes
        cplan = pl.plan(diagram)
        assert cplan.total_flops == total_flops
        assert " ".join(f"{runs(s.left)}|{runs(s.right)}"
                        for s in cplan.steps) == steps


class TestPlanCache:
    def test_bounded_and_keeps_recently_used_plans(self):
        kept = pl.svdp_diagram(16, 72, 4, 1)
        kept_plan = pl.plan(kept)
        first = pl.svdp_diagram(5, 7, 2, 1)
        pl.plan(first)
        for d_x in range(2, 302):
            pl.plan(pl.svdp_diagram(5, 7, 2, d_x))
            assert pl.plan(kept) is kept_plan
        assert len(pl._PLAN_CACHE) <= pl.PLAN_CACHE_SIZE
        assert kept.signature() in pl._PLAN_CACHE
        assert first.signature() not in pl._PLAN_CACHE

    def test_signature_is_computed_once(self):
        diagram = pl.svdp_diagram(16, 72, 4, 1)
        twin = pl.svdp_diagram(16, 72, 4, 1)
        assert diagram.signature() is diagram.signature()
        assert twin is not diagram and twin.signature() == diagram.signature()


class TestExecute:
    def test_svdp_execution_matches_dense(self):
        rng = np.random.default_rng(0)
        p = random_svdp_params(9, 7, 3, LEARNED, 5)
        x = rng.standard_normal((7, 4))
        got = pl.apply_map(p, x)
        want = pl.decompress(p) @ x
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_full_diagram_against_one_shot_einsum(self):
        rng = np.random.default_rng(1)
        diagram = random_chain_diagram(rng, 5)
        data = {
            i: rng.standard_normal(node.dims)
            for i, node in enumerate(diagram.nodes)
        }
        got = pl.execute(pl.plan(diagram), data)
        operands = []
        for i, node in enumerate(diagram.nodes):
            operands.append(data[i])
            operands.append(list(diagram.node_axis_ids[i]))
        operands.append(list(diagram.output_axis_ids))
        want = np.einsum(*operands, optimize=True)
        assert np.allclose(got, want, atol=1e-12)

    def test_alternative_plans_agree(self):
        # executing any valid contraction order yields the same tensor
        rng = np.random.default_rng(2)
        p = random_svdp_params(6, 8, 2, LEARNED, 9)
        x = rng.standard_normal((8, 3))
        diagram = pl.svdp_diagram(6, 8, 2, 3)
        from ttspectral import householder as hh
        from ttspectral.spectral import materialize_sigma

        data = {
            0: hh.decode(p.u_layout),
            1: materialize_sigma(p.spectrum),
            2: hh.decode(p.v_layout),
            3: x,
        }
        reference = pl.execute(pl.plan(diagram), data)
        # decompress-first order, built by hand
        w = pl.decompress(p)
        assert np.linalg.norm(reference - w @ x) <= 1e-9 * np.linalg.norm(w @ x)

    def test_program_makes_the_per_step_matmuls(self):
        # each step moves the left operand to (free, shared) axes and the
        # right to (shared, free), each group by increasing axis id, and
        # multiplies them as matrices, a diagonal node as its dense matrix;
        # execute, which scales by a diagonal joining along one axis, must
        # match that bit for bit
        rng = np.random.default_rng(3)
        diagrams = [random_chain_diagram(rng, 7, with_diagonal=True),
                    library_diagram("sttp", 16, 72, 4, LEARNED, 3)]
        # up to 8 nodes the search tries every tree, outer products too
        shapes = np.random.default_rng(10)
        diagrams += [random_chain_diagram(shapes, n, with_diagonal=True)
                     for n in range(3, 9)]
        # a diagonal leaf joining along both of its axes
        diagrams.append(pl.TensorDiagram(
            [pl.DiagramNode((3, 3, 2)), pl.DiagramNode((3, 3), True)],
            [(0, 0, 1, 0), (0, 1, 1, 1)], [(0, 2)]))
        bound = []
        for diagram in diagrams:
            sizes = diagram.axis_sizes
            data = {i: rng.standard_normal(node.dims[:1] if node.diagonal
                                           else node.dims)
                    for i, node in enumerate(diagram.nodes)}
            cplan = pl.plan(diagram)
            bound += [shape for node, shape in
                      zip(diagram.nodes, cplan.vector_shapes) if node.diagonal]
            inter = {}
            for i, node in enumerate(diagram.nodes):
                arr = np.diag(data[i]) if node.diagonal else data[i]
                inter[(i,)] = (arr, diagram.node_axis_ids[i])
            for step in cplan.steps:
                a, ia = inter.pop(step.left)
                b, ib = inter.pop(step.right)
                shared = sorted(set(ia) & set(ib))
                free_a = [aid for aid in step.result_axes if aid in ia]
                free_b = [aid for aid in step.result_axes if aid in ib]
                m, k, n = (int(np.prod([sizes[aid] for aid in group]))
                           for group in (free_a, shared, free_b))
                a2 = np.transpose(a, [ia.index(aid)
                                      for aid in free_a + shared])
                b2 = np.transpose(b, [ib.index(aid)
                                      for aid in shared + free_b])
                order = free_a + free_b
                res = np.matmul(a2.reshape(m, k), b2.reshape(k, n)).reshape(
                    [sizes[aid] for aid in order])
                res = np.transpose(res, [order.index(aid)
                                         for aid in step.result_axes])
                assert res.shape == step.result_dims
                inter[tuple(sorted(step.left + step.right))] = (
                    res, step.result_axes)
            (final, ids), = inter.values()
            want = np.transpose(
                final, [ids.index(aid) for aid in diagram.output_axis_ids])
            assert np.array_equal(pl.execute(cplan, data), want)
            # and agree with one einsum over the whole diagram
            assert np.allclose(want, one_shot_einsum(diagram, data),
                               rtol=1e-12, atol=1e-12)
        # diagonals ran both as scalings and as dense matrices
        assert None in bound and any(shape is not None for shape in bound)

    @pytest.mark.parametrize("spectrum", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_library_plans_scale_without_a_diagonal_matrix(
            self, scheme, spectrum, monkeypatch):
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(16, 72, 4, spectrum, 2)
        xs = [np.random.default_rng(d_x).standard_normal((72, d_x))
              for d_x in (1, 3, 64)]
        want = [pl.apply_map(p, x) for x in xs]

        def no_diag(*args, **kwargs):
            raise AssertionError("built a dense diagonal matrix")

        monkeypatch.setattr(np, "diag", no_diag)
        for x, y in zip(xs, want):
            assert np.array_equal(pl.apply_map(p, x), y)

    @pytest.mark.parametrize("container", [dict, tuple])
    def test_missing_binding(self, container):
        # data maps node index to array, or lists the arrays in node order
        diagram = pl.svdp_diagram(4, 5, 2, 1)
        arrays = [np.eye(4, 2), np.ones(2), np.eye(5, 2), np.ones((5, 1))]
        bind = (lambda n: dict(enumerate(arrays[:n]))) if container is dict \
            else (lambda n: tuple(arrays[:n]))
        with pytest.raises(BindingError, match=r"node 1 \('sigma'\)"):
            pl.execute(pl.plan(diagram), bind(1))
        got = pl.execute(pl.plan(diagram), bind(4))
        assert got.tobytes() == pl.execute(pl.plan(diagram),
                                           dict(enumerate(arrays))).tobytes()

    def test_wrong_shape_binding(self):
        diagram = pl.svdp_diagram(4, 5, 2, 1)
        data = {0: np.zeros((4, 2)), 1: np.zeros(2), 2: np.zeros((5, 2)),
                3: np.zeros((4, 1))}
        with pytest.raises(BindingError):
            pl.execute(pl.plan(diagram), data)

    def test_diagonal_binds_vector(self):
        diagram = pl.svdp_diagram(4, 5, 2, 1)
        data = {0: np.eye(4, 2), 1: np.zeros((2, 2)), 2: np.eye(5, 2),
                3: np.zeros((5, 1))}
        with pytest.raises(BindingError, match="diagonal"):
            pl.execute(pl.plan(diagram), data)


class TestApplyMap:
    def test_identity_spectrum_truncated_identity_action(self):
        from ttspectral.svdp import init_svdp_params

        p = init_svdp_params(6, 5, 3, IDENTITY, 0, "identity")
        x = np.random.default_rng(3).standard_normal((5, 2))
        got = pl.apply_map(p, x)
        want = (np.eye(6, 3) @ np.eye(5, 3).T) @ x
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("d_x", [1, 7, 64])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_equals_decompress_then_multiply(self, scheme, d_x):
        rng = np.random.default_rng(d_x)
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        for seed in range(5):
            p = maker(16, 12, 4, LEARNED, seed)
            x = rng.standard_normal((12, d_x))
            got = pl.apply_map(p, x)
            want = pl.decompress(p) @ x
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_worked_chain_instance(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 3)
        x = np.random.default_rng(4).standard_normal((72, 1))
        got = pl.apply_map(p, x)
        want = pl.decompress(p) @ x
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_plan_cost_bounded_by_naive(self):
        for scheme, maker in (("svdp", random_svdp_params),
                              ("sttp", random_sttp_params)):
            p = maker(16, 12, 4, LEARNED, 0)
            for d_x in (1, 7, 64):
                if scheme == "svdp":
                    diagram = pl.svdp_diagram(16, 12, 4, d_x)
                else:
                    diagram = pl.sttp_diagram(p.out_fac.factors,
                                              p.in_fac.factors,
                                              p.schedule.ranks, d_x)
                assert pl.plan(diagram).total_flops <= pl.naive_flops(p, d_x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_non_finite_input_rejected(self, scheme, bad):
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(4, 6, 2, LEARNED, 0)
        x = np.ones((6, 3))
        x[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            pl.apply_map(p, x)

    @pytest.mark.parametrize("x", [
        pytest.param(np.ones((6, 3)) + 1j, id="complex"),
        pytest.param(np.full((6, 3), "1.0"), id="str"),
        pytest.param(np.full((6, 3), b"1.0"), id="bytes"),
        pytest.param(np.zeros((6, 3), "datetime64[s]"), id="datetime64"),
        pytest.param(np.zeros((6, 3), "timedelta64[s]"), id="timedelta64"),
        pytest.param(np.ones((6, 3), object), id="object"),
    ])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_input_of_a_non_real_kind_rejected(self, scheme, x):
        # apply_map and FrobeniusLoss take the same dtype kinds: bool,
        # signed and unsigned integer, and float
        from ttspectral.autodiff import FrobeniusLoss

        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(4, 6, 2, LEARNED, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(DomainError, match="real"):
                pl.apply_map(p, x)
            with pytest.raises(DomainError, match="real"):
                FrobeniusLoss(x.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["layout", "spectrum"])
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_non_finite_parameters_never_reach_apply(self, scheme, where,
                                                     bad):
        # a non-finite theta cannot become parameters, so apply_map cannot
        # turn it into a silently NaN output
        from ttspectral import autodiff as ad
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(4, 6, 2, LEARNED, 0)
        theta = ad.pack(p)
        theta[0 if where == "layout" else -1] = bad
        with pytest.raises(DomainError, match="finite"):
            pl.apply_map(ad.unpack(p, theta), np.ones((6, 3)))

    def test_svdp_applies_through_the_one_core_chain_plan(self):
        # the svdp chain view's diagram is the four-node svdp diagram: one
        # cached plan, and the same bits as binding the frames by hand
        from ttspectral import householder as hh
        from ttspectral.spectral import materialize_sigma

        for d_out, d_in, r in ((16, 72, 4), (1, 5, 1), (5, 1, 1)):
            p = random_svdp_params(d_out, d_in, r, LEARNED, 3)
            view = p.chain
            chain = pl.sttp_diagram(view.out_factors, view.in_factors,
                                    view.ranks, 3)
            four = pl.svdp_diagram(d_out, d_in, r, 3)
            assert chain.signature() == four.signature()
            assert pl.plan(chain) is pl.plan(four)
            x = np.random.default_rng(1).standard_normal((d_in, 3))
            data = {0: hh.decode(p.u_layout),
                    1: materialize_sigma(p.spectrum),
                    2: hh.decode(p.v_layout), 3: x}
            assert np.array_equal(pl.apply_map(p, x),
                                  pl.execute(pl.plan(four), data))

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_zero_column_input(self, scheme, monkeypatch):
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(16, 72, 4, LEARNED, 0)
        x = np.zeros((72, 0))

        def no_plan(diagram):
            raise AssertionError("a zero-column input must not be planned")

        monkeypatch.setattr(pl, "plan", no_plan)
        got = pl.apply_map(p, x)
        want = pl.decompress(p) @ x
        assert got.shape == want.shape == (16, 0)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize("d_x", [1, 64])
    def test_sixteen_node_chain_matches_decompress(self, d_x):
        p = random_sttp_params(128, 128, 4, LEARNED, 7)
        view = p.chain
        diagram = pl.sttp_diagram(view.out_factors, view.in_factors,
                                  view.ranks, d_x)
        assert len(diagram.nodes) == 16
        x = np.random.default_rng(d_x).standard_normal((128, d_x))
        got = pl.apply_map(p, x)
        want = pl.decompress(p) @ x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("shape,nodes", [((256, 256, 8), 18),
                                             ((1024, 1024, 16), 22)])
    def test_large_chains_plan_and_match_decompress(self, shape, nodes,
                                                    mode):
        p = random_sttp_params(*shape, mode, 8)
        view = p.chain
        w = pl.decompress(p)
        for d_x in (1, 64):
            diagram = pl.sttp_diagram(view.out_factors, view.in_factors,
                                      view.ranks, d_x)
            assert len(diagram.nodes) == nodes
            assert_plan_structure(diagram, pl.plan(diagram))
            x = np.random.default_rng(d_x).standard_normal((shape[1], d_x))
            got = pl.apply_map(p, x)
            want = w @ x
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", [(16, 72, 4), (256, 256, 8)])
    def test_sttp_applies_through_the_four_node_plan(self, shape,
                                                     monkeypatch):
        p = random_sttp_params(*shape, LEARNED, 5)
        planned = []
        plan = pl.plan
        monkeypatch.setattr(pl, "plan",
                            lambda diagram: planned.append(diagram)
                            or plan(diagram))
        x = np.random.default_rng(0).standard_normal((shape[1], 3))
        pl.apply_map(p, x)
        four = pl.svdp_diagram(*shape, 3)
        assert [d.signature() for d in planned] == [four.signature()]

    @given(scheme=st.sampled_from(sorted(SCHEMES)),
           d_out=st.integers(1, 40), d_in=st.integers(1, 40),
           r_frac=st.floats(0.0, 1.0),
           mode=st.sampled_from([LEARNED, IDENTITY]),
           d_x=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_decompress_on_random_shapes(self, scheme, d_out, d_in,
                                                 r_frac, mode, d_x, seed):
        # svdp takes any dim, sttp factors dims >= 2; below 41 a side has
        # at most 5 factors, so a diagram has at most 12 nodes
        if scheme == "sttp":
            d_out, d_in = max(d_out, 2), max(d_in, 2)
        r = 1 + int(r_frac * (min(d_out, d_in) - 1))
        p = SCHEMES[scheme].random(d_out, d_in, r, mode, seed)
        view = p.chain
        assert len(pl.sttp_diagram(view.out_factors, view.in_factors,
                                   view.ranks, d_x).nodes) <= 12
        x = np.random.default_rng(seed).standard_normal((d_in, d_x))
        want = pl.decompress(p) @ x
        got = pl.apply_map(p, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_wrong_input_rows(self):
        p = random_svdp_params(4, 5, 2, LEARNED, 0)
        with pytest.raises(ShapeError):
            pl.apply_map(p, np.zeros((6, 1)))

    def test_prime_dims_chain_degenerates_to_four_nodes(self):
        # prime dims give one core per side: the same diagram as the
        # two-frame scheme, and the same applied values
        p = random_sttp_params(7, 5, 3, LEARNED, 2)
        diagram = pl.sttp_diagram(p.out_fac.factors, p.in_fac.factors,
                                  p.schedule.ranks, 2)
        assert len(diagram.nodes) == 4
        x = np.random.default_rng(0).standard_normal((5, 2))
        got = pl.apply_map(p, x)
        want = pl.decompress(p) @ x
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
