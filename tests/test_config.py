import pytest

from pencilgraphs import _golden, config as cfgmod, graphbuild as gb
from pencilgraphs.gf2 import SpaceCtx


@pytest.mark.parametrize("case", [(3, 1), (4, 2), (4, 1)])
def test_params_and_menger(case):
    ctx = SpaceCtx(*case)
    g = gb.component(*case)
    cfg = cfgmod.build_config(ctx, g)
    assert cfg.params == _golden.CONFIG_PARAMS[case]
    assert cfg.check_balance()
    m, c, n, d = cfg.params
    assert c * m == d * n
    assert cfgmod.menger_equals_graph(cfg, g)


def test_levi_graph_structure():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(ctx, g)
    lv = cfgmod.levi_graph(cfg)
    assert len(lv) == 84
    assert all(lv.degree(x) == 4 for x in range(len(lv)))
    ctx = SpaceCtx(4, 2)
    g = gb.component(4, 2)
    cfg = cfgmod.build_config(ctx, g)
    lv = cfgmod.levi_graph(cfg)
    assert lv.n_black == 210 and lv.n_white == 630
    assert all(lv.degree(x) == 12 for x in range(210))
    assert all(lv.degree(x) == 4 for x in range(210, 840))


def test_levi_rejects_empty_line():
    cfg = cfgmod.IncidenceStructure(3, [(0, 1), ()], 1, 2)
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.levi_graph(cfg)


def test_degenerate_single_line_is_clique():
    cfg = cfgmod.IncidenceStructure(4, [(0, 1, 2, 3)], 1, 4)
    edges = cfgmod.menger_edges(cfg)
    assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_self_duality_31():
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(ctx, g)
    dual = cfgmod.self_duality_map(cfg)
    assert dual is not None
    nb = cfg.n_points
    # color-swapping involution of roles: points to lines and back
    assert all(dual[i] >= nb for i in range(nb))
    assert all(dual[nb + i] < nb for i in range(len(cfg.lines)))
    # incidence preserved
    lv = cfgmod.levi_graph(cfg)
    for x in range(len(lv)):
        m = lv.adj[x]
        while m:
            low = m & -m
            m ^= low
            y = low.bit_length() - 1
            assert lv.adj[dual[x]] >> dual[y] & 1
    assert cfgmod.dual_menger_isomorphic(cfg, g, dual)


def test_duality_node_cap(monkeypatch):
    ctx = SpaceCtx(3, 1)
    g = gb.component(3, 1)
    cfg = cfgmod.build_config(ctx, g)
    monkeypatch.setattr(cfgmod, "DUALITY_NODE_CAP", 1)
    with pytest.raises(cfgmod.ConfigError, match="node cap"):
        cfgmod.self_duality_map(cfg)


def test_non_square_case_has_no_duality():
    ctx = SpaceCtx(4, 2)
    g = gb.component(4, 2)
    cfg = cfgmod.build_config(ctx, g)
    assert cfgmod.self_duality_map(cfg) is None


@pytest.mark.heavy
def test_self_duality_41():
    ctx = SpaceCtx(4, 1)
    g = gb.component(4, 1)
    cfg = cfgmod.build_config(ctx, g)
    dual = cfgmod.self_duality_map(cfg)
    assert dual is not None
    assert cfgmod.dual_menger_isomorphic(cfg, g, dual)
