import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest

from pencilgraphs import _golden, cli, gf2, graphbuild, hrho, report
from pencilgraphs.cli import main


def run(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr().out


def test_build_json(capsys):
    rc, out = run(capsys, "build", "-r", "3", "-s", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["r"] == 3 and data["sigma"] == 1
    assert len(data["vertices"]) == 42
    assert data["vertices"][0]["A0"] == [1]
    assert data["vertices"][0]["entries"] == [[2, 3], [4, 5], [6, 7]]
    assert data["display"][0] == "(1,23,45,67)"
    assert all(len(row) == 12 for row in data["adjacency"])
    assert data["components"] == [42]


def test_build_dot_and_text(capsys):
    rc, out = run(capsys, "build", "-r", "3", "-s", "1", "--format", "dot")
    assert rc == 0
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 42 * 12 // 2
    rc, out = run(capsys, "build", "-r", "3", "-s", "1", "--format", "text")
    assert rc == 0
    assert out.splitlines()[0] == "0 (1,23,45,67)"


def test_verify(capsys):
    rc, out = run(capsys, "verify", "-r", "3", "-s", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] and data["clique_copies"] == 42 and data["turan_copies"] == 21


def test_aut(capsys):
    rc, out = run(capsys, "aut", "-r", "3", "-s", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["closure_order"] == data["formula_order"] == 24
    assert any(g["category"] == "A" for g in data["generators"])


def test_census_csv_default(capsys):
    rc, out = run(capsys, "census", "--rho", "3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["super_type", "distance", "count"]
    got = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
    assert got == _golden.TABLE1[3]


def test_census_json(capsys):
    rc, out = run(capsys, "census", "--rho", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["diff_vs_reference"] == []


def test_hrho_verb(capsys):
    rc, out = run(capsys, "hrho", "--rho", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 168
    assert data["j_display"] == "(1372456)"
    assert data["coset_index"] == 28


def test_config_verb(capsys):
    rc, out = run(capsys, "config", "-r", "3", "-s", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["params"] == [42, 4, 42, 4]
    assert data["self_dual"] is True
    assert data["menger_equals_graph"] is True


def test_homog_verb(capsys):
    rc, out = run(capsys, "homog", "-r", "3", "-s", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["vertex_transitive_under_generators"]
    assert data["witness"] is None
    assert all(rep["ok"] for rep in data["h_property"])


def test_invalid_parameters_exit_2(capsys):
    assert main(["build", "-r", "2", "-s", "1"]) == 2
    assert main(["build", "-r", "4", "-s", "3"]) == 2


@pytest.mark.parametrize("args", [
    ["hrho", "--rho", "0"],
    ["hrho", "--rho", "1"],
    ["hrho", "--rho", "6", "--enable-heavy"],
    ["census", "--rho", "1"],
], ids=["hrho-0", "hrho-1", "hrho-6-heavy", "census-1"])
def test_rho_out_of_range_exit_2(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid parameters: ")


@pytest.mark.parametrize("verb,args,formats", [
    ("build", ["-r", "3", "-s", "1"], ["json", "dot", "text"]),
    ("verify", ["-r", "3", "-s", "1"], ["json", "text"]),
    ("aut", ["-r", "3", "-s", "1"], ["json"]),
    ("config", ["-r", "3", "-s", "1"], ["json", "dot"]),
    ("homog", ["-r", "3", "-s", "1"], ["json"]),
    ("report", ["-r", "3", "-s", "1"], ["json"]),
    ("hrho", ["--rho", "3"], ["json"]),
    ("census", ["--rho", "3"], ["csv", "json"]),
])
def test_format_choices_per_verb(capsys, verb, args, formats):
    """Each verb accepts exactly the formats it writes, the first being its
    default; argparse rejects the rest with exit 2 before any work is done."""
    assert cli._parser().parse_args([verb, *args]).fmt == formats[0]
    for fmt in ["json", "csv", "dot", "text"]:
        if fmt in formats:
            ns = cli._parser().parse_args([verb, *args, "--format", fmt])
            assert ns.fmt == fmt
            continue
        assert main([verb, *args, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err


CENSUS_5_SHA256 = (
    "a15316d7253ba58baf43c816b1c311f49f334767520d24a78793d3aa865c6b18")


def test_heavy_guard(capsys, tmp_path):
    """Neither the rho = 5 census nor the rho = 5 order needs
    --enable-heavy: the census without it writes the pinned bytes.  A
    refusal, as by a capped build, exits 2 with a message on stderr,
    nothing on stdout and an existing --out left untouched."""
    dest = tmp_path / "census.csv"
    assert main(["census", "--rho", "5", "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == CENSUS_5_SHA256
    dest.write_text("keep me\n")
    rc = main(["build", "-r", "4", "-s", "1", "--cap-vertices", "10",
               "--out", str(dest)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("refused: ")
    assert dest.read_text() == "keep me\n"
    assert list(tmp_path.iterdir()) == [dest]
    rc, out = run(capsys, "hrho", "--rho", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == data["order_formula"] == _golden.GROUP_ORDERS[5]
    assert data["coset_index"] == _golden.COSET_INDEX[5]


def test_report_determinism_across_threads(tmp_path):
    """Identical artifacts regardless of the worker thread count."""
    p1, p4 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "-r", "3", "-s", "1", "--threads", "1",
                 "--out", str(p1)]) == 0
    assert main(["report", "-r", "3", "-s", "1", "--threads", "4",
                 "--out", str(p4)]) == 0
    assert p1.read_bytes() == p4.read_bytes()


def test_report_passes_31(tmp_path):
    out = tmp_path / "r.json"
    assert main(["report", "-r", "3", "-s", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert data["failed_checks"] == []


@pytest.mark.parametrize("r,sigma", [(3, 1), (4, 2), (5, 3)])
def test_report_stabilizer_order_agrees_with_aut(tmp_path, r, sigma):
    """The report runs its stabilizer_order check at every case, with or
    without an NR_ORDERS row, and it passes exactly when ``aut`` exits 0.
    (5,3) has no row, and both fail there: for sigma >= 3 the synthesized
    generators close to less than the formula's order."""
    case = ["-r", str(r), "-s", str(sigma)]
    out = tmp_path / "r.json"
    main(["report"] + case + ["--out", str(out)])
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["check"] == "stabilizer_order"]
    aut_code = main(["aut"] + case + ["--out", str(tmp_path / "a.json")])
    assert (check["status"] == "PASS") == (aut_code == 0)


def test_report_agrees_with_the_verbs_at_53(tmp_path):
    """At (5,3), which no digest pins, the report's entries equal what the
    config, homog and hrho verbs write: the configuration, both homogeneity
    checks, the vertex transitivity and the auxiliary order; homog exits 0
    exactly when both of its checks pass."""
    def verb(*args):
        out = tmp_path / f"{args[0]}.json"
        code = main(list(args) + ["--out", str(out)])
        return code, json.loads(out.read_text())

    case = ("-r", "5", "-s", "3")
    code, rep = verb("report", *case)
    assert code == 1
    got = {c["check"]: c for c in rep["checks"]}
    _, cfg = verb("config", *case)
    hom_code, hom = verb("homog", *case)
    _, aux = verb("hrho", "--rho", "2")
    conf = got["configuration"]["got"]
    assert {"params", "menger_equals_graph", "balanced"} <= set(conf)
    assert conf == {k: cfg[k] for k in conf}
    assert got["h_property"]["got"] == hom["h_property"]
    assert got["uh_witness"]["got"] == {
        "witness_found": hom["witness"] is not None,
        "tried": hom["witness_candidates_tried"], "witness": hom["witness"]}
    assert (got["diameter"]["got"]["vertex_transitive"]
            == hom["vertex_transitive_under_generators"])
    assert got["aux_group_order"]["got"] == aux["order"]
    assert (hom_code == 0) == (got["h_property"]["status"]
                               == got["uh_witness"]["status"] == "PASS")


def _count_certificates(monkeypatch):
    """Counts per (name, rho): calls of certified_distances and generators,
    and runs of the cached certified_generators and certified_coset_label,
    each given an empty cache."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(rho):
            calls[name, rho] += 1
            return fn(rho)
        return wrapper

    for name in ("certified_generators", "certified_coset_label"):
        inner = getattr(hrho, name).__wrapped__
        monkeypatch.setattr(hrho, name, lru_cache(maxsize=None)(
            counted(name, inner)))
    for name in ("certified_distances", "generators"):
        monkeypatch.setattr(hrho, name, counted(name, getattr(hrho, name)))
    return calls


def test_report_certifies_once_per_rho(monkeypatch, tmp_path):
    """One report at (4,1) runs the class certificate once, certifies the
    coset label once, and builds and certifies each generator list it
    reads once; the entry permutations of homog read the certified list."""
    calls = _count_certificates(monkeypatch)
    assert main(["report", "-r", "4", "-s", "1",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert dict(calls) == {
        ("certified_distances", 3): 1, ("certified_coset_label", 3): 1,
        ("certified_generators", 3): 1, ("certified_generators", 2): 1,
        ("generators", 3): 1, ("generators", 2): 1}


def test_hrho_5_builds_generators_once(monkeypatch, tmp_path):
    """hrho --rho 5 builds and certifies each generator list once, for the
    order and the coset label, and runs no class certificate."""
    calls = _count_certificates(monkeypatch)
    assert main(["hrho", "--rho", "5",
                 "--out", str(tmp_path / "h.json")]) == 0
    assert dict(calls) == {
        ("generators", 5): 1, ("generators", 4): 1,
        ("certified_generators", 5): 1, ("certified_generators", 4): 1,
        ("certified_coset_label", 5): 1}


def test_report_decomposition_without_golden_row(monkeypatch):
    """With no golden row the decomposition check expects the closed forms
    ell0 = (2^sigma - 1) n and ell1 = m1 n / (s t), and the (3,1) entry
    reads as with the golden row: 42 and 21."""
    def decomposition():
        return next(c for c in report.acceptance_report(3, 1)["checks"]
                    if c["check"] == "decomposition")

    golden = decomposition()
    monkeypatch.delitem(_golden.CASE_DATA, (3, 1))
    assert decomposition() == golden
    assert golden["status"] == "PASS"
    assert (golden["expected"]["ell0"], golden["expected"]["ell1"]) == (42, 21)


@pytest.mark.parametrize("args,sha256", [
    (["report", "-r", "3", "-s", "1"],
     "488d8f3f4e86ea521ec75ae1968dce431bf577400027f2c8661528c982618200"),
    (["report", "-r", "4", "-s", "2"],
     "aef431767ac0dded6ec252b2fa170f1e2ef032569d9670219a0bfa437b646f1d"),
    (["build", "-r", "3", "-s", "1"],
     "c789610679736af2da8def7f9965cdee7afa7d4e92103fea7f277934e3ffb053"),
    (["build", "-r", "4", "-s", "1"],
     "c6a7099c43fbaadb3c878383a27dd750438a71a0fccc7fb28c81dbb3f03cbebf"),
    (["verify", "-r", "4", "-s", "1"],
     "3ee049d80546ae6748991b4940857f206ca7fe474dd4d3c5060680f3db03b8ed"),
    (["homog", "-r", "4", "-s", "2"],
     "d15f704315166d825258ca661464efba06b3721452768d58169fff2bb397500e"),
    (["config", "-r", "3", "-s", "1"],
     "1af6e1a14852128845141f247b84058f7cf494f98bda444b5c20233c1c5eee0f"),
    (["config", "-r", "3", "-s", "1", "--format", "dot"],
     "e907f99a7878fb77ab03727bcbe5307b2451f948f9ccdd93eeff6cc466b66001"),
    (["config", "-r", "4", "-s", "1", "--enable-heavy"],
     "a22c6e031bafae54ee99dd3904d6f54a57e97fc170a54f61470bc469df55267b"),
    (["aut", "-r", "4", "-s", "2"],
     "5e25306f7d261320369057ce4df209543bf92523bd962184f89eb9b8ccaa2c3a"),
    (["aut", "-r", "3", "-s", "1"],
     "d33bfd2a6de35f2d3b7852c664589c40f847aa91a3f4e571147e4f76a98b08ed"),
    (["aut", "-r", "4", "-s", "1"],
     "5c188a2e38432c11d78fdf61fc20fc06c520107b060741f351fa6cf41c4aa908"),
    (["aut", "-r", "5", "-s", "2"],
     "a75a6ac1fa26d1bdb645399c2c8f12d904577bd0ee9e6467dd134e0794b8031a"),
    (["homog", "-r", "4", "-s", "1"],
     "c01be42e1444fdfc47110406d6a31e0e5ba6ab0b5668d83af51ec8f87f1d6450"),
    (["census", "--rho", "4"],
     "19c4c3654ab84a33d7b962e3042d0a3c1ff931db1e6a4d5256cad01acfa810f5"),
    (["hrho", "--rho", "4"],
     "fd4bb29e0beac8f6ece7398955b52c88128ad2173d17070b9f7a217975f8557c"),
    (["hrho", "--rho", "5"],
     "58f5222e1e5080224c2576475e36a791b6433616b99d1273fd26c0eb75890aba"),
    (["census", "--rho", "5", "--enable-heavy"], CENSUS_5_SHA256),
], ids=["report-3-1", "report-4-2", "build-3-1", "build-4-1", "verify-4-1",
        "homog-4-2", "config-3-1", "config-3-1-dot", "config-4-1", "aut-4-2",
        "aut-3-1", "aut-4-1", "aut-5-2", "homog-4-1", "census-4", "hrho-4",
        "hrho-5", "census-5"])
def test_artifact_digests_pinned(tmp_path, args, sha256):
    """Artifacts at the default seed stay byte-identical to the reference."""
    out = tmp_path / "a.out"
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.heavy
def test_aut_64_digest_pinned(tmp_path):
    """At (6,4) the synthesized generators close to less than the formula
    order, so aut exits 1; its output stays byte-identical."""
    out = tmp_path / "a.out"
    assert main(["aut", "-r", "6", "-s", "4", "--out", str(out)]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7325a9b3c1bbc31cfe4e49b83689b0e73324970358af70f324f3e2d0013cf7f9")


@pytest.mark.parametrize("args", [
    ["build", "-r", "4", "-s", "1", "--cap-vertices", "10"],
    ["build", "-r", "4", "-s", "1", "--full", "--cap-vertices", "3000"],
    ["verify", "-r", "8", "-s", "3"],
    ["report", "-r", "4", "-s", "1", "--cap-vertices", "100"],
    ["report", "-r", "4", "-s", "1", "--cap-vertices", "3000"],
], ids=["build-cap-10", "build-full-cap-3000", "verify-8-3", "report-cap-100",
        "report-full-cap-3000"])
def test_cap_refusal_exit_2(tmp_path, capsys, args):
    """A build past the vertex cap is refused with one stderr line and exit
    2, no traceback, and no --out file.  The report builds the component
    and then the full graph, and each honours the cap: at 3000 the 2,520
    vertices of the (4,1) component pass and the full graph does not."""
    out = tmp_path / "a.out"
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cap, err", [
    (100, "refused: predicted component order 2520 exceeds cap 100\n"),
    (3000, "refused: full graph order 75600 exceeds cap 3000\n"),
], ids=["component", "full"])
def test_report_refuses_cap_before_any_build(tmp_path, capsys, monkeypatch,
                                             cap, err):
    """The report checks the component and, when check 11 will run, the
    full graph against the cap before it builds either, with the texts the
    builds raise: with every build patched to fail, it still refuses."""
    def no_build(*args):
        raise AssertionError("a graph was built before the cap refusal")

    for name in ("component", "full_graph", "build_component", "build_full"):
        monkeypatch.setattr(graphbuild, name, no_build)
    out = tmp_path / "a.out"
    assert main(["report", "-r", "4", "-s", "1", "--cap-vertices", str(cap),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err
    assert list(tmp_path.iterdir()) == []


def test_r_past_8_is_invalid(tmp_path, capsys):
    """r = 9 passes the vertex cap at sigma = 7 (260,610 vertices), but
    points past 255 do not fit the build's byte keys: the parameters are
    refused before any build, with exit 2 and one stderr line."""
    out = tmp_path / "a.out"
    assert main(["build", "-r", "9", "-s", "7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid parameters: r must be in 3..8, got 9\n"
    assert list(tmp_path.iterdir()) == []


def test_cap_refusal_from_the_command_line(tmp_path):
    out = tmp_path / "a.out"
    proc = subprocess.run(
        [sys.executable, "-m", "pencilgraphs.cli", "build", "-r", "4", "-s",
         "1", "--cap-vertices", "10", "--out", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "refused: predicted component order 2520 exceeds cap 10\n"
    assert not out.exists()


def test_heavy_paths_do_not_import_numpy(tmp_path):
    """The rho = 5 census and order and a report run without numpy, whose
    import alone would add about 14 MB to the peak RSS."""
    runs = [["census", "--rho", "5", "--enable-heavy"],
            ["hrho", "--rho", "5", "--enable-heavy"],
            ["report", "-r", "4", "-s", "2"]]
    code = ("import sys\n"
            "from pencilgraphs.cli import main\n"
            f"for i, args in enumerate({runs!r}):\n"
            "    assert main(args + ['--out', f'{i}.out']) == 0, args\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.out", "1.out",
                                                          "2.out"]


def test_successive_main_calls_match_separate_processes(tmp_path, capsys,
                                                        monkeypatch):
    """One process serves verb after verb with one parser: each main call
    writes the bytes and the error text, and exits with the code, of the
    same command in a process of its own, bad arguments included."""
    runs = [["census", "--rho", "3"], ["report", "-r", "3", "-s", "1"],
            ["report", "-r", "3"], ["census", "--rho", "9"],
            ["verify", "-r", "3", "-s", "1", "--format", "dot"],
            ["census", "--rho", "3", "--format", "json"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for i, args in enumerate(runs):
        one, own = tmp_path / f"{i}.one", tmp_path / f"{i}.own"
        rc = main(args + ["--out", str(one)])
        err = capsys.readouterr().err
        proc = subprocess.run(
            [sys.executable, "-m", "pencilgraphs.cli", *args, "--out",
             str(own)], capture_output=True, text=True, env=env)
        assert (rc, err) == (proc.returncode, proc.stderr), args
        assert one.exists() == own.exists() == (rc == 0), args
        if rc == 0:
            assert one.read_bytes() == own.read_bytes(), args
    assert cli._parser() is cli._parser()


def test_internal_build_error_is_not_caught(monkeypatch):
    """Only cap refusals exit 2; a broken invariant still raises."""
    def broken(*args):
        raise graphbuild.BuildError("vertex 0 occurs 3 times")

    monkeypatch.setattr(graphbuild, "component", broken)
    with pytest.raises(graphbuild.BuildError, match="occurs 3 times"):
        main(["verify", "-r", "3", "-s", "1"])


def test_out_write_is_atomic(tmp_path):
    """A failed write keeps the existing --out file and leaves no temp file."""
    out = tmp_path / "r.json"
    out.write_text("previous\n")
    cfg = cli.RunConfig(command="build", out=str(out))
    with pytest.raises(UnicodeEncodeError):
        cli._emit(cfg, "partial" + "\ud800")
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    cli._emit(cfg, "new\n")
    assert out.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def _dumps(data):
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _seed_build_doc(r, sigma, full):
    """The build document as plain lists, for json.dumps to write."""
    g = graphbuild.full_graph(r, sigma) if full else graphbuild.component(
        r, sigma)
    return {
        "r": r,
        "sigma": sigma,
        "vertices": [
            {"A0": list(gf2.points_of(v[0])),
             "entries": [list(gf2.points_of(m)) for m in v[1:]]}
            for v in g.vertices
        ],
        "adjacency": [list(g.neighbors_of(i)) for i in range(len(g))],
        "display": [g.vertex_display(i) for i in range(len(g))],
        "components": graphbuild.component_sizes(g),
    }


@pytest.mark.parametrize("args", [
    ["build", "-r", "3", "-s", "1"], ["build", "-r", "3", "-s", "1", "--full"],
    ["build", "-r", "4", "-s", "2"], ["build", "-r", "4", "-s", "2", "--full"],
    ["verify", "-r", "3", "-s", "1"], ["aut", "-r", "3", "-s", "1"],
    ["config", "-r", "3", "-s", "1"], ["homog", "-r", "3", "-s", "1"],
    ["report", "-r", "3", "-s", "1"], ["hrho", "--rho", "3"],
    ["census", "--rho", "3", "--format", "json"],
], ids=lambda a: "-".join(a))
def test_json_writer_matches_json_dumps_on_artifacts(monkeypatch, capsys, args):
    """Every verb's JSON artifact reads as json.dumps writes it.

    build renders its graph document itself, so its artifact is compared
    with json.dumps of the document built from lists, at (3,1) and at
    (4,2), where A0 has three points and the entries four.  Every other
    verb writes its stdout as the one text _json returns, and that text
    round-trips: json.dumps of what it parses to is the text again.
    """
    if args[0] == "build":
        assert main(args) == 0
        assert capsys.readouterr().out == _dumps(
            _seed_build_doc(int(args[2]), int(args[4]), "--full" in args))
        return
    texts = []
    write = cli._json

    def recorded(data):
        texts.append(write(data))
        return texts[-1]

    monkeypatch.setattr(cli, "_json", recorded)
    assert main(args) == 0
    out = capsys.readouterr().out
    assert texts == [out]
    assert _dumps(json.loads(out)) == out


def test_out_is_atomic_when_the_export_fails_midway(tmp_path, monkeypatch):
    """A build whose adjacency rows fail partway through the document
    leaves an existing --out file untouched and no temporary file."""
    g = graphbuild.component(3, 1)

    class FailingRows:
        def __init__(self):
            self.reads = 0

        def __len__(self):
            return len(g.adj)

        def __getitem__(self, k):
            self.reads += 1
            if self.reads > len(g) // 2:
                raise RuntimeError("row source failed")
            return g.adj[k]

    rows = FailingRows()
    broken = dataclasses.replace(g, adj=rows)
    monkeypatch.setattr(graphbuild, "component", lambda *a: broken)
    out = tmp_path / "g.json"
    out.write_text("previous\n")
    with pytest.raises(RuntimeError, match="row source failed"):
        main(["build", "-r", "3", "-s", "1", "--out", str(out)])
    assert rows.reads == len(g) // 2 + 1
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def _export_in_subprocess(tmp_path, args):
    """(sha256 of the artifact, peak RSS in MB) of one build in a fresh
    process.

    Linux carries ru_maxrss across exec, so in the child it is at least the
    spawning test process's own peak; VmHWM, where there is one, is the
    high-water mark of the child's own memory map."""
    code = ("import resource\n"
            "from pencilgraphs.cli import main\n"
            f"assert main({args + ['--out', 'g.json']!r}) == 0\n"
            "try:\n"
            "    status = open('/proc/self/status').read()\n"
            "    print(status.split('VmHWM:')[1].split()[0])\n"
            "except (OSError, IndexError):\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest()
    return digest, int(proc.stdout) / 1024


def test_build_full_41_export_pinned(tmp_path):
    """The 64 MB export of the (4,1) full graph is byte-identical to the
    reference and peaks under 250 MB (it peaked at 512 MB when the
    document was held as per-vertex lists and one list of pieces)."""
    digest, peak_mb = _export_in_subprocess(
        tmp_path, ["build", "-r", "4", "-s", "1", "--full"])
    assert digest == (
        "32817619013992d79215eb0e815a3f5b4087b42fa9ad31f94d1e1f9814abb679")
    assert peak_mb < 250


@pytest.mark.heavy
def test_build_52_export_pinned(tmp_path):
    """The (5,2) component export: byte-identical, peak under 300 MB."""
    digest, peak_mb = _export_in_subprocess(
        tmp_path, ["build", "-r", "5", "-s", "2"])
    assert digest == (
        "25bf5abde6858f10290f09bfd5ed19ed21268a0d3b09055374c68a6f38a0ca31")
    assert peak_mb < 300
