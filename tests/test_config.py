import dataclasses
import random
from array import array
from itertools import combinations

import pytest

from pencilgraphs import _golden, config as cfgmod, graphbuild as gb


def literal_menger_edges(lines) -> set[tuple[int, int]]:
    """The Menger graph by definition: every pair of points on a line."""
    return {(a, b) for ln in lines for a, b in combinations(sorted(ln), 2)}


def literal_dual_menger_edges(cfg, duality) -> set[tuple[int, int]]:
    """The dual Menger graph by definition, every pair of lines through a
    point, with line li relabelled as duality[n_points + li]."""
    nb = cfg.n_points
    point_lines: list[list[int]] = [[] for _ in range(nb)]
    for li, ln in enumerate(cfg.lines):
        for p in ln:
            point_lines[p].append(li)
    return {tuple(sorted((duality[nb + a], duality[nb + b])))
            for lns in point_lines for a, b in combinations(lns, 2)}


def _replace_point(cfg):
    """cfg with the first point of its first line moved off the line."""
    ln = cfg.lines[0]
    q = next(p for p in range(cfg.n_points) if p not in ln)
    lines = [tuple(sorted((q,) + ln[1:]))] + cfg.lines[1:]
    return cfgmod.IncidenceStructure(cfg.n_points, lines, cfg.lines_per_point,
                                     cfg.points_per_line)


def _swap_neighbor(g):
    """g with the base vertex's first neighbour swapped for a non-neighbour;
    every neighbour of vertex 0 is above 0, so g.edges() sees the swap."""
    row = set(g.neighbors_of(0))
    k = next(j for j in range(1, len(g)) if j not in row)
    adj = array(g.adj.typecode, g.adj)
    adj[0] = k
    return dataclasses.replace(g, adj=adj)


class _Rows:
    """A stand-in graph: only its order and its adjacency rows."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def neighbors_of(self, i):
        return self.rows[i]


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_params_and_menger(case):
    g = gb.component(*case)
    cfg = cfgmod.build_config(g)
    assert cfg.params == _golden.CONFIG_PARAMS[case]
    assert cfg.check_balance()
    m, c, n, d = cfg.params
    assert c * m == d * n
    assert cfgmod.menger_equals_graph(cfg, g)


def test_degenerate_single_line_is_clique():
    cfg = cfgmod.IncidenceStructure(4, [(0, 1, 2, 3)], 1, 4)
    k4 = [[j for j in range(4) if j != i] for i in range(4)]
    assert cfgmod._rows_match(_Rows(k4), cfg.lines, cfg.through)
    k4[3] = [0, 1]  # one row of K4 minus an edge
    assert not cfgmod._rows_match(_Rows(k4), cfg.lines, cfg.through)
    k4[3] = [0, 1, 2, 2]  # the right neighbours, one of them twice
    assert not cfgmod._rows_match(_Rows(k4), cfg.lines, cfg.through)
    # two lines sharing the points 0 and 1: each row is the union of its
    # lines minus itself, but 0 and 1 see each other on both lines
    cfg = cfgmod.IncidenceStructure(4, [(0, 1, 2), (0, 1, 3)], 2, 3)
    union = [[1, 2, 3], [0, 2, 3], [0, 1], [0, 1]]
    assert not cfgmod._rows_match(_Rows(union), cfg.lines, cfg.through)


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_menger_checks_match_literal_edge_sets(case):
    """The row checks agree with the set-of-pairs definitions, on the
    configuration and on a moved point and a swapped neighbour."""
    g = gb.component(*case)
    cfg = cfgmod.build_config(g)
    edges = set(g.edges())
    assert literal_menger_edges(cfg.lines) == edges
    assert cfgmod.menger_equals_graph(cfg, g)
    bad = _replace_point(cfg)
    assert literal_menger_edges(bad.lines) != edges
    assert not cfgmod.menger_equals_graph(bad, g)
    g_bad = _swap_neighbor(g)
    assert literal_menger_edges(cfg.lines) != set(g_bad.edges())
    assert not cfgmod.menger_equals_graph(cfg, g_bad)

    # a seeded map of the lines to the points: a bijection when square
    nb, n_lines = cfg.n_points, len(cfg.lines)
    rng = random.Random(20240801)
    if n_lines == nb:
        image = rng.sample(range(nb), nb)
    else:
        image = [rng.randrange(nb) for _ in range(n_lines)]
    duality = list(range(n_lines, n_lines + nb)) + image
    assert cfgmod.dual_menger_isomorphic(cfg, g, duality) == (
        literal_dual_menger_edges(cfg, duality) == edges)


def test_bad_dualities_give_false():
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(g)
    dual = cfgmod.self_duality_map(cfg)
    nb = cfg.n_points
    assert literal_dual_menger_edges(cfg, dual) == set(g.edges())
    assert cfgmod.dual_menger_isomorphic(cfg, g, dual)
    two_to_one = list(dual)
    two_to_one[nb + 1] = two_to_one[nb]
    assert not cfgmod.dual_menger_isomorphic(cfg, g, two_to_one)
    to_line = list(dual)
    to_line[nb] = nb
    assert not cfgmod.dual_menger_isomorphic(cfg, g, to_line)
    assert not cfgmod.dual_menger_isomorphic(cfg, _swap_neighbor(g), dual)


def test_self_duality_31():
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(g)
    dual = cfgmod.self_duality_map(cfg)
    assert dual is not None
    nb = cfg.n_points
    # color-swapping involution of roles: points to lines and back
    assert all(dual[i] >= nb for i in range(nb))
    assert all(dual[nb + i] < nb for i in range(len(cfg.lines)))
    # incidence preserved: p on line li exactly when line dual[p] - nb
    # passes through the point dual[nb + li]
    incident = {(p, li) for p, lns in enumerate(cfg.through) for li in lns}
    assert incident == {(p, li) for li, ln in enumerate(cfg.lines) for p in ln}
    assert {(dual[nb + li], dual[p] - nb) for p, li in incident} == incident
    assert cfgmod.dual_menger_isomorphic(cfg, g, dual)


def test_duality_node_cap(monkeypatch):
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(g)
    monkeypatch.setattr(cfgmod, "DUALITY_NODE_CAP", 1)
    with pytest.raises(cfgmod.ConfigError, match="node cap"):
        cfgmod.self_duality_map(cfg)


def test_non_square_case_has_no_duality():
    g = gb.component(4, 2)
    cfg = cfgmod.build_config(g)
    assert cfgmod.self_duality_map(cfg) is None


def test_self_duality_41():
    g = gb.component(4, 1)
    cfg = cfgmod.build_config(g)
    dual = cfgmod.self_duality_map(cfg)
    assert dual is not None
    assert cfgmod.dual_menger_isomorphic(cfg, g, dual)
    assert literal_dual_menger_edges(cfg, dual) == set(g.edges())
