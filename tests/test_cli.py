import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from clustercodes.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIG4 = ["--n", "12", "--k", "6", "--L", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_mbr_fig4(capsys):
    code, out, _ = run(capsys, "params", *FIG4, "--epsilon", "0", "--mode", "mbr")
    assert code == 0
    obj = json.loads(out)
    assert (obj["alpha"], obj["gamma"], obj["M"], obj["theta"]) == (3, 3, 11, 18)
    assert (obj["beta_i"], obj["beta_c"]) == (1, 0)


def test_params_msr_quarter(capsys):
    code, out, _ = run(capsys, "params", "--n", "6", "--k", "2", "--L", "3",
                       "--epsilon", "1/4", "--mode", "msr")
    assert code == 0
    obj = json.loads(out)
    assert (obj["alpha"], obj["gamma"], obj["M"]) == (4, 8, 8)


def test_params_gap_regime_exits_2(capsys):
    code, _, err = run(capsys, "params", "--n", "6", "--k", "2", "--L", "3",
                       "--epsilon", "1/5", "--mode", "msr")
    assert code == 2
    assert "1/(n-k)" in err


def test_params_mbr_chi_flag_agrees_with_epsilon(capsys):
    _, out1, _ = run(capsys, "params", "--n", "6", "--k", "3", "--L", "2",
                     "--chi", "3", "--mode", "mbr")
    _, out2, _ = run(capsys, "params", "--n", "6", "--k", "3", "--L", "2",
                     "--epsilon", "1/3", "--mode", "mbr")
    assert json.loads(out1) == json.loads(out2)
    assert json.loads(out1)["M"] == 18


# params inputs and their output: one system per kind, both capacity-point
# branches, and inputs no construction covers
PARAMS_CASES = {
    "mbr0": ("12 6 3 --epsilon 0 --mode mbr", 0, {
        "M": 11, "alpha": 3, "beta_c": 0, "beta_i": 1, "code": "mbr0", "epsilon": 0,
        "gamma": 3, "theta": 18}),
    "mbr": ("6 3 2 --chi 3 --mode mbr", 0, {
        "M": 18, "alpha": 9, "beta_c": 1, "beta_i": 3, "chi": 3, "code": "mbr",
        "epsilon": "1/3", "gamma": 9, "theta": 27}),
    "msr0-div": ("6 3 2 --epsilon 0 --mode msr", 0, {
        "M": 6, "alpha": 3, "beta_c": 0, "beta_i": 3, "code": "msr0-div", "epsilon": 0,
        "gamma": 6, "theta": 18}),
    "msr0-nondiv": ("6 4 2 --epsilon 0 --mode msr", 0, {
        "M": 3, "alpha": 1, "beta_c": 0, "beta_i": 1, "code": "msr0-nondiv",
        "epsilon": 0, "gamma": 2, "theta": 6}),
    "msr-stacked": ("6 2 3 --epsilon 1/4 --mode msr", 0, {
        "M": 8, "alpha": 4, "beta_c": 1, "beta_i": 4, "code": "msr-stacked",
        "epsilon": "1/4", "gamma": 8, "theta": 24}),
    "msr-wrapped": ("9 5 3 --epsilon 1/2 --mode msr", 0, {
        "M": 20, "alpha": 4, "beta_c": 1, "beta_i": 2, "chi": 2, "code": "msr-wrapped",
        "epsilon": "1/2", "gamma": 10, "theta": 36}),
    "mbr-capacity-point": ("6 3 2 --epsilon 2/5 --mode mbr", 0, {
        "M": 33, "alpha": 16, "beta_c": 2, "beta_i": 5, "code": None, "epsilon": "2/5",
        "gamma": 16, "theta": None}),
    "msr-capacity-point": ("6 3 2 --epsilon 2/5 --mode msr", 0, {
        "M": 9, "alpha": 3, "beta_c": 1, "beta_i": "5/2", "code": None, "epsilon": "2/5",
        "gamma": 8, "theta": None}),
    # the product-matrix base needs n = 2k-1, so no construction covers these
    "wrapped-shape-capacity-point": ("12 5 3 --chi 2 --mode msr", 0, {
        "M": 35, "alpha": 7, "beta_c": 1, "beta_i": 2, "code": None, "epsilon": "1/2",
        "gamma": 14, "theta": None}),
    "msr-epsilon-over-1": ("6 3 2 --epsilon 3/2 --mode msr", 2, "[0, 1]"),
    "mbr-k-equals-n": ("6 6 2 --epsilon 0 --mode mbr", 2, "k < n"),
}


@pytest.mark.parametrize("case", PARAMS_CASES)
def test_params_table(capsys, case):
    args, want_code, want = PARAMS_CASES[case]
    n, k, big_l, *rest = args.split()
    code, out, err = run(capsys, "params", "--n", n, "--k", k, "--L", big_l, *rest)
    assert code == want_code, err
    if want_code == 0:
        assert json.loads(out) == want
    else:
        assert out == "" and want in err


def test_params_names_only_codes_that_build():
    """Wherever params names a code, a build of that code succeeds."""
    from clustercodes import codes
    from clustercodes.cli import build_parser
    from clustercodes.errors import ParamError
    from clustercodes.topology import ClusterTopology
    parser, named = build_parser(), {}
    for n in range(2, 10):
        for big_l in (d for d in range(1, n + 1) if n % d == 0):
            for k in range(1, n + 1):
                for mode in ("mbr", "msr"):
                    for eps in ("0", "1", "1/2", "1/3", "1/4"):
                        argv = ["params", "--n", str(n), "--k", str(k), "--L", str(big_l),
                                "--epsilon", eps, "--mode", mode]
                        args, out = parser.parse_args(argv), io.StringIO()
                        try:
                            with redirect_stdout(out):
                                args.func(args)
                        except ParamError:  # params exits 2 and names nothing
                            continue
                        kind = json.loads(out.getvalue())["code"]
                        if kind is not None:
                            named[kind, (n, k, big_l), Fraction(eps)] = argv
    assert {kind for kind, _, _ in named} == set(codes.TABLE)
    for (kind, shape, eps), argv in named.items():
        top = ClusterTopology(*shape)
        m_size = codes.declared_params(kind, top, epsilon=eps)["M"]
        gf = codes.default_field(kind, top, epsilon=eps)
        p = codes.build(kind, top, list(range(1, m_size + 1)), gf, epsilon=eps)
        assert p.instances == 1, argv


@pytest.mark.parametrize("flags", [["--code", "mbr0", "--chi", "3"],
                                   ["--code", "msr0-div", "--epsilon", "1/2"]])
def test_build_refuses_a_ratio_the_kind_does_not_take(tmp_path, capsys, flags):
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(6))
    code, _, err = run(capsys, "build", *flags, "--n", "6", "--k", "3", "--L", "2",
                       "--source", str(src), "--out", str(tmp_path / "p.json"))
    assert code == 2, err
    assert "epsilon = 0" in err and "Traceback" not in err
    assert not (tmp_path / "p.json").exists()


def test_capacity_command(capsys):
    code, out, _ = run(capsys, "capacity", *FIG4, "--alpha", "3",
                       "--beta-i", "1", "--beta-c", "0")
    assert code == 0
    assert json.loads(out) == {"capacity": 11}


@pytest.fixture
def fig4_placement(tmp_path, capsys):
    source = Random(0).randbytes(11)
    src = tmp_path / "src.bin"
    src.write_bytes(source)
    place = tmp_path / "place.json"
    code = main(["build", "--code", "mbr0", *FIG4,
                 "--source", str(src), "--out", str(place)])
    capsys.readouterr()
    assert code == 0
    return source, place


def test_build_repair_reconstruct_roundtrip(tmp_path, capsys, fig4_placement):
    source, place = fig4_placement
    tfile, nfile = tmp_path / "t.json", tmp_path / "n.json"
    code, _, _ = run(capsys, "repair", "--placement", str(place), "--node", "2,3",
                     "--out-transcript", str(tfile), "--out-node", str(nfile))
    assert code == 0
    transcript = json.loads(tfile.read_text())
    providers = {(c["l"], c["j"]): [s["idx"] for s in c["symbols"]]
                 for c in transcript["contributions"] if c["symbols"]}
    assert providers == {(2, 1): [8], (2, 2): [10], (2, 4): [12]}
    assert transcript["gamma"] == 3
    regen = json.loads(nfile.read_text())
    assert [s["idx"] for s in regen["symbols"]] == [8, 10, 12]

    out = tmp_path / "rec.bin"
    code, _, _ = run(capsys, "reconstruct", "--placement", str(place),
                     "--nodes", "1,1", "1,2", "1,3", "1,4", "2,1", "2,2",
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes() == source


def test_reconstruct_too_few_nodes_exit_2(tmp_path, capsys, fig4_placement):
    _, place = fig4_placement
    code, _, err = run(capsys, "reconstruct", "--placement", str(place),
                       "--nodes", "1,1", "1,2", "1,3", "1,4", "2,1",
                       "--out", str(tmp_path / "x.bin"))
    assert code == 2
    assert "need k=6" in err


def test_malformed_placement_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mbr0", "params": {}}')
    code, _, err = run(capsys, "reconstruct", "--placement", str(bad),
                       "--nodes", "1,1", "--out", str(tmp_path / "x.bin"))
    assert code == 3
    assert "malformed" in err


def test_wrong_source_length_exit_2(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(b"x" * 10)  # M = 11
    code, _, err = run(capsys, "build", "--code", "mbr0", *FIG4,
                       "--source", str(src), "--out", str(tmp_path / "p.json"))
    assert code == 2
    assert "multiple of M" in err


def test_build_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3,
                               "field": {"m": 8, "poly": 285}}))
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(range(18)))
    place = tmp_path / "p.json"
    code, _, _ = run(capsys, "build", "--config", str(cfg),
                     "--source", str(src), "--out", str(place))
    assert code == 0
    obj = json.loads(place.read_text())
    assert obj["kind"] == "mbr" and obj["params"]["theta"] == 27

    out = tmp_path / "rec.bin"
    code, _, _ = run(capsys, "reconstruct", "--placement", str(place),
                     "--nodes", "2,1", "2,2", "2,3", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == bytes(range(18))


def test_build_dump_generator_csv(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(range(11)))
    gen = tmp_path / "gen.csv"
    code, _, _ = run(capsys, "build", "--code", "mbr0", *FIG4,
                     "--source", str(src), "--out", str(tmp_path / "p.json"),
                     "--dump-generator", str(gen))
    assert code == 0
    rows = gen.read_text().strip().splitlines()
    assert len(rows) == 11 and all(len(r.split(",")) == 18 for r in rows)
    assert rows[0] == ",".join(["01"] * 18)  # first Vandermonde row is all ones


def test_placement_file_roundtrips_bit_exact(tmp_path, capsys, fig4_placement):
    _, place = fig4_placement
    from clustercodes.placement import (dump_json, load_json, placement_from_obj,
                                        placement_to_obj)
    text = place.read_text()
    again = dump_json(placement_to_obj(placement_from_obj(load_json(text))))
    assert again == text


def test_verify_config_pass_and_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "L": 2, "code": "msr0-div"}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["system"]["code"] == "msr0-div"
    assert all(c["pass"] for c in report["checks"])


def test_verify_wrong_expectation_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 12, "k": 6, "L": 3, "code": "mbr0",
                               "expect": {"M": 12}}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and failing[0]["counterexample"]["key"] == "M"


def test_verify_config_array(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([
        {"n": 6, "k": 3, "L": 2, "code": "msr0-div"},
        {"n": 6, "k": 4, "L": 2, "code": "msr0-nondiv"},
    ]))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)) == 2


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,L,check,pass"
    assert all(line.endswith(",true") for line in lines[1:])
    assert any(line.startswith("8,7,2,") for line in lines)


def test_field_promotes_to_gf16_when_theta_large(tmp_path, capsys):
    # n=24, L=1: theta = C(24,2) = 276 > 255, so two bytes per symbol
    src = tmp_path / "src.bin"
    payload = Random(3).randbytes(2 * 86)  # M = 86
    src.write_bytes(payload)
    place = tmp_path / "p.json"
    code, _, _ = run(capsys, "build", "--code", "mbr0", "--n", "24", "--k", "4",
                     "--L", "1", "--source", str(src), "--out", str(place))
    assert code == 0
    obj = json.loads(place.read_text())
    assert obj["params"]["field"]["m"] == 16
    nodes = [f"1,{j}" for j in range(1, 5)]
    out = tmp_path / "rec.bin"
    code, _, _ = run(capsys, "reconstruct", "--placement", str(place),
                     "--nodes", *nodes, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == payload


def test_explicitly_pinned_small_field_errors(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(b"\0" * 86)
    code, _, err = run(capsys, "build", "--code", "mbr0", "--n", "24", "--k", "4",
                       "--L", "1", "--field-m", "8", "--field-poly", "285",
                       "--source", str(src), "--out", str(tmp_path / "p.json"))
    assert code == 2
    assert "promote" in err


def test_build_output_deterministic(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(range(11)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["build", "--code", "mbr0", *FIG4,
                     "--source", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_unknown_code_kind_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "L": 2, "code": "raid6"}))
    src = tmp_path / "s.bin"
    src.write_bytes(b"abc")
    code, _, err = run(capsys, "build", "--config", str(cfg),
                       "--source", str(src), "--out", str(tmp_path / "o.json"))
    assert code == 3
    assert "unknown code kind" in err


@pytest.mark.parametrize("command", ["repair", "reconstruct"])
def test_unknown_placement_kind_exit_3(tmp_path, capsys, command):
    _, place = build_kind(tmp_path, capsys, "mbr0", 1)
    obj = json.loads(place.read_text())
    place.write_text(json.dumps(dict(obj, kind="raid6")))
    repair, reconstruct = load_commands(tmp_path, place)
    code, _, err = run(capsys, *(repair if command == "repair" else reconstruct))
    assert code == 3, err
    assert "unknown placement kind" in err and "Traceback" not in err


# config edits that give a field the wrong type, and a config file that
# lists no config at all; 1e400 is written as that literal, which json.loads
# reads as an infinite float
BAD_CONFIG_EDITS = {
    "chi-string": {"chi": "3"},
    "chi-float": {"chi": 3.0},
    "chi-bool": {"chi": True},
    "expect-int": {"expect": 5},
    "expect-epsilon-list": {"expect": {"epsilon": [1]}},
    "n-float": {"n": 12.9},
    "n-1e400": {"n": 1e400},
    "n-bool": {"n": True},
    "seed-float": {"seed": 1.5},
    "field-m-string": {"field": {"m": "8", "poly": 285}},
    "empty-list": [],
}


@pytest.mark.parametrize("edit", BAD_CONFIG_EDITS)
@pytest.mark.parametrize("command", ["verify", "build"])
def test_bad_config_types_exit_3(tmp_path, capsys, edit, command):
    cfg, edit = tmp_path / "cfg.json", BAD_CONFIG_EDITS[edit]
    obj = edit if edit == [] else {"n": 6, "k": 3, "L": 2, "code": "mbr", "chi": 3, **edit}
    cfg.write_text(json.dumps(obj).replace("Infinity", "1e400"))
    if command == "verify":
        argv = ["verify", "--config", str(cfg)]
    else:
        src = tmp_path / "src.bin"
        src.write_bytes(bytes(range(18)))  # M = 18 at chi = 3
        argv = ["build", "--config", str(cfg), "--source", str(src),
                "--out", str(tmp_path / "p.json")]
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert "error:" in err and "Traceback" not in err


# one small reference system per kind: its build flags and file size M
KIND_SYSTEMS = {
    "mbr0": (["--n", "6", "--k", "3", "--L", "2"], 3),
    "mbr": (["--n", "6", "--k", "3", "--L", "2", "--chi", "3"], 18),
    "msr0-div": (["--n", "6", "--k", "3", "--L", "2"], 6),
    "msr0-nondiv": (["--n", "6", "--k", "4", "--L", "2"], 3),
    "msr-stacked": (["--n", "6", "--k", "2", "--L", "3"], 8),
    "msr-wrapped": (["--n", "9", "--k", "5", "--L", "3", "--epsilon", "1/2"], 20),
}


def build_kind(tmp_path, capsys, kind, instances, *extra):
    """Build a placement of `kind` holding `instances` instances; returns the
    payload and the placement path."""
    flags, m_size = KIND_SYSTEMS[kind]
    payload = Random(len(kind)).randbytes(m_size * instances)
    src, place = tmp_path / "src.bin", tmp_path / "place.json"
    src.write_bytes(payload)
    code, _, err = run(capsys, "build", "--code", kind, *flags, "--source", str(src),
                       "--out", str(place), *extra)
    assert code == 0, err
    return payload, place


def all_nodes(place):
    return [f"{e['l']},{e['j']}" for e in json.loads(place.read_text())["nodes"]]


@pytest.mark.parametrize("kind", KIND_SYSTEMS)
@pytest.mark.parametrize("bad", ["9,9", "0,1", "2,0"])
@pytest.mark.parametrize("command", ["repair", "reconstruct"])
def test_node_outside_topology_exit_2(tmp_path, capsys, kind, bad, command):
    _, place = build_kind(tmp_path, capsys, kind, 1)
    if command == "repair":
        argv = ["repair", "--placement", str(place), "--node", bad,
                "--out-transcript", str(tmp_path / "t.json"),
                "--out-node", str(tmp_path / "n.json")]
    else:
        argv = ["reconstruct", "--placement", str(place),
                "--nodes", bad, *all_nodes(place), "--out", str(tmp_path / "x.bin")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "N({})".format(bad) in err and "Traceback" not in err


def _drop_last(obj):
    obj["nodes"][0]["symbols"].pop()


def _add_extra(obj):
    obj["nodes"][0]["symbols"].append(dict(obj["nodes"][0]["symbols"][0]))


def _wrong_s(obj):
    obj["params"]["s"] += 1


def _outside_field(obj):
    obj["nodes"][0]["symbols"][0]["val_hex"] = "1ff"


def _listed_twice(obj):
    obj["nodes"].append(dict(obj["nodes"][0]))


def _outside_topology(obj):
    obj["nodes"].append(dict(obj["nodes"][0], l=9, j=1))


def _l_string(obj):
    obj["nodes"][0]["l"] = "1"


def _idx_bool(obj):
    obj["nodes"][0]["symbols"][0]["idx"] = True


def _non_canonical_hex(obj):
    obj["nodes"][0]["symbols"][0]["val_hex"] = " +0x0_0\n"


def _padded_hex(obj):  # the same value, spelled as int() and bytes.fromhex accept
    obj["nodes"][0]["symbols"][0]["val_hex"] = " " + obj["nodes"][0]["symbols"][0]["val_hex"]


def load_commands(tmp_path, place):
    """A repair of N(1,2) and a reconstruct from every node of the placement."""
    return (["repair", "--placement", str(place), "--node", "1,2",
             "--out-transcript", str(tmp_path / "t.json"),
             "--out-node", str(tmp_path / "n.json")],
            ["reconstruct", "--placement", str(place), "--nodes", *all_nodes(place),
             "--out", str(tmp_path / "x.bin")])


@pytest.mark.parametrize("kind", KIND_SYSTEMS)
@pytest.mark.parametrize("mutate", [_drop_last, _add_extra, _wrong_s, _outside_field,
                                    _listed_twice, _outside_topology, _l_string, _idx_bool,
                                    _non_canonical_hex, _padded_hex])
def test_malformed_holding_exit_3(tmp_path, capsys, kind, mutate):
    _, place = build_kind(tmp_path, capsys, kind, 2)
    obj = json.loads(place.read_text())
    assert (obj["nodes"][0]["l"], obj["nodes"][0]["j"]) == (1, 1)
    mutate(obj)
    place.write_text(json.dumps(obj))
    for argv in load_commands(tmp_path, place):
        code, _, err = run(capsys, *argv)
        assert code == 3, (argv[0], err)
        assert "Traceback" not in err


# placement params that differ from what a build of the kind records
PARAM_EDITS = {
    "chi-string": ("mbr", lambda params: params.update(chi="3")),
    "poly-string": ("mbr", lambda params: params["field"].update(poly="285")),
    "M-off-by-one": ("mbr", lambda params: params.update(M=17)),
    "epsilon-garbage": ("mbr", lambda params: params.update(epsilon="x")),
    "weights-short": ("msr0-nondiv", lambda params: params["parity_weights"].pop()),
    "weight-zero": ("msr0-nondiv", lambda params: params.update(
        parity_weights=[0, *params["parity_weights"][1:]])),
    "weight-float": ("msr0-nondiv", lambda params: params.update(
        parity_weights=[float(w) for w in params["parity_weights"]])),
    "point-outside-field": ("msr0-nondiv", lambda params: params.update(
        eval_points=[256, *params["eval_points"][1:]])),
    "point-duplicate": ("msr0-nondiv", lambda params: params.update(
        eval_points=[params["eval_points"][1], *params["eval_points"][1:]])),
    "field-m-20": ("mbr", lambda params: params["field"].update(m=20, poly=0x100009)),
    "chi-on-msr0-div": ("msr0-div", lambda params: params.update(chi=3)),
    # what msr0-nondiv's search records, on a kind that records none of it
    "stray-points-int": ("mbr0", lambda params: params.update(eval_points=5)),
    "stray-points-null": ("mbr0", lambda params: params.update(eval_points=None)),
    "stray-weights-nested": ("mbr0", lambda params: params.update(parity_weights=[[1]])),
    "nondiv-d-list": ("msr0-nondiv", lambda params: params.update(d=[[1]])),
    "wrapped-base-other": ("msr-wrapped", lambda params: params.update(base="other")),
}


@pytest.mark.parametrize("edit", PARAM_EDITS)
@pytest.mark.parametrize("command", ["repair", "reconstruct"])
def test_bad_placement_params_exit_3(tmp_path, capsys, edit, command):
    kind, mutate = PARAM_EDITS[edit]
    _, place = build_kind(tmp_path, capsys, kind, 1)
    obj = json.loads(place.read_text())
    mutate(obj["params"])
    place.write_text(json.dumps(obj))
    repair, reconstruct = load_commands(tmp_path, place)
    code, _, err = run(capsys, *(repair if command == "repair" else reconstruct))
    assert code == 3, err
    assert "error:" in err and "Traceback" not in err


# configs whose kind's domain does not hold their inputs
OUT_OF_DOMAIN = {
    "mbr0-chi-3": {"n": 6, "k": 3, "L": 2, "code": "mbr0", "chi": 3},
    "msr0-div-n_I-not-dividing-k": {"n": 6, "k": 4, "L": 2, "code": "msr0-div"},
}


@pytest.mark.parametrize("config", OUT_OF_DOMAIN)
@pytest.mark.parametrize("command", ["verify", "build"])
def test_config_outside_its_kinds_domain_exit_2(tmp_path, capsys, config, command):
    """verify --config refuses such a config as build does, with exit 2."""
    cfg, src = tmp_path / "cfg.json", tmp_path / "src.bin"
    cfg.write_text(json.dumps(OUT_OF_DOMAIN[config]))
    src.write_bytes(bytes(6))
    argv = {"verify": ["verify", "--config", str(cfg)],
            "build": ["build", "--config", str(cfg), "--source", str(src),
                      "--out", str(tmp_path / "p.json")]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["non-utf8", "deep"])
@pytest.mark.parametrize("command", ["build", "verify", "repair", "reconstruct"])
def test_undecodable_file_exit_3(tmp_path, capsys, content, command):
    bad, src = tmp_path / "bad.json", tmp_path / "src.bin"
    bad.write_bytes(content)
    src.write_bytes(bytes(3))
    argv = {"build": ["build", "--config", bad, "--source", src, "--out", tmp_path / "p"],
            "verify": ["verify", "--config", bad],
            "repair": ["repair", "--placement", bad, "--node", "1,1",
                       "--out-transcript", tmp_path / "t", "--out-node", tmp_path / "n"],
            "reconstruct": ["reconstruct", "--placement", bad, "--nodes", "1,1",
                            "--out", tmp_path / "x"]}[command]
    code, _, err = run(capsys, *map(str, argv))
    assert code == 3, err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("m, poly", [(17, 0x20009), (20, 0x100009)])
@pytest.mark.parametrize("via", ["config", "flags", "verify"])
def test_field_over_16_bits_exit_2(tmp_path, capsys, m, poly, via):
    cfg, src = tmp_path / "cfg.json", tmp_path / "src.bin"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "L": 2, "code": "mbr0",
                               "field": {"m": m, "poly": poly}}))
    src.write_bytes(bytes(3))
    build = ["build", "--source", str(src), "--out", str(tmp_path / "p.json")]
    argv = {"config": build + ["--config", str(cfg)],
            "flags": build + ["--code", "mbr0", "--n", "6", "--k", "3", "--L", "2",
                              "--field-m", str(m), "--field-poly", str(poly)],
            "verify": ["verify", "--config", str(cfg)]}[via]
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", KIND_SYSTEMS)
def test_dump_generator_encodes_the_placement(tmp_path, capsys, kind):
    from clustercodes.galois import field_create
    from clustercodes.mdscodec import Matrix
    from oracles import vec_mat
    gen = tmp_path / "gen.csv"
    payload, place = build_kind(tmp_path, capsys, kind, 1, "--dump-generator", str(gen))
    rows = [[int(x, 16) for x in line.split(",")]
            for line in gen.read_text().strip().splitlines()]
    assert len(rows) == KIND_SYSTEMS[kind][1]
    word = vec_mat(field_create(8), list(payload), Matrix(len(rows), len(rows[0]), rows))
    stored = {s["idx"]: int(s["val_hex"], 16)
              for e in json.loads(place.read_text())["nodes"] for s in e["symbols"]}
    assert stored == {i + 1: val for i, val in enumerate(word)}


@pytest.mark.parametrize("kind, s, copies", [
    pytest.param(kind, s, copies,
                 id=kind if (s, copies) == (8, "one") else f"{kind}-s{s}-{copies}")
    for s in (8, 64) for copies in ("one", "every") for kind in KIND_SYSTEMS])
def test_last_instance_corruption_caught(tmp_path, capsys, kind, s, copies):
    """One in-field flip in the last of s instances, on a symbol of the first
    word, in one stored copy of it or in every copy: decoding from
    every node notices it. One copy of a symbol the MBR codes store twice is
    caught as a duplicate that disagrees; every copy, or the one copy of an
    MSR symbol, as a share that disagrees with the others. At s = 64 every
    kind's decode is at least as wide as its system, which runs it by stripe."""
    from clustercodes import codes
    from clustercodes.errors import InconsistentSharesError
    from clustercodes.placement import load_json, placement_from_obj
    _, place = build_kind(tmp_path, capsys, kind, s)
    obj = json.loads(place.read_text())
    p = placement_from_obj(obj)
    con = codes.construction(p.kind, p.topology, p.gf, p.params)
    read = con.words[0][0]
    target = (s - 1) * con.params["theta"] + read
    stored = [x for e in obj["nodes"] for x in e["symbols"] if x["idx"] == target]
    for sym in stored[:1] if copies == "one" else stored:
        sym["val_hex"] = f"{int(sym['val_hex'], 16) ^ 1:0{len(sym['val_hex'])}x}"
    place.write_text(json.dumps(obj))
    bad = placement_from_obj(load_json(place.read_text()))
    with pytest.raises(InconsistentSharesError):
        codes.reconstruct(bad, list(bad.topology.nodes()))
    _, reconstruct = load_commands(tmp_path, place)
    code, _, err = run(capsys, *reconstruct)
    assert code == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("s", [1, 64])
def test_msr0_div_contacted_parity_checked(tmp_path, capsys, s):
    """msr0-div decodes its source from the n_I - 1 slot words and
    checks the parity symbols it contacts against that source: one parity
    value flipped on N(1,1) in the last instance makes the reconstruct from
    N(1,1), N(1,2), N(2,1) fail, by stripe at s = 64 and instance by instance
    at s = 1, and the CLI exit 1."""
    from clustercodes import codes
    from clustercodes.errors import InconsistentSharesError
    from clustercodes.placement import load_json, placement_from_obj
    from clustercodes.topology import NodeId
    _, place = build_kind(tmp_path, capsys, "msr0-div", s)
    obj = json.loads(place.read_text())
    p = placement_from_obj(obj)
    con = codes.construction(p.kind, p.topology, p.gf, p.params)
    theta, parity = con.params["theta"], set(con.parity)
    node = next(e for e in obj["nodes"] if (e["l"], e["j"]) == (1, 1))
    sym = next(x for x in node["symbols"]
               if x["idx"] > (s - 1) * theta and (x["idx"] - 1) % theta + 1 in parity)
    sym["val_hex"] = f"{int(sym['val_hex'], 16) ^ 1:02x}"
    place.write_text(json.dumps(obj))
    bad = placement_from_obj(load_json(place.read_text()))
    with pytest.raises(InconsistentSharesError):
        codes.reconstruct(bad, [NodeId(1, 1), NodeId(1, 2), NodeId(2, 1)])
    code, _, err = run(capsys, "reconstruct", "--placement", str(place),
                       "--nodes", "1,1", "1,2", "2,1", "--out", str(tmp_path / "x.bin"))
    assert code == 1, err
    assert "Traceback" not in err


# The file boundary: compact one-line JSON out, any JSON whitespace in.

def indented(text):
    """text in the indented form earlier versions of the CLI wrote."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def written_files(tmp_path):
    """What the CLI writes for a fixed set of inputs, in order: the placement
    of every kind at s = 2 and of mbr0 over GF(2^16), each one's transcript
    and node file for a repair of N(1,2), two params outputs, a capacity
    output and a verify report without its elapsed time."""
    for kind, (flags, m_size) in [*KIND_SYSTEMS.items(),
                                  ("mbr0", (KIND_SYSTEMS["mbr0"][0] + ["--field-m", "16"], 6))]:
        src, place = tmp_path / "src.bin", tmp_path / "place.json"
        src.write_bytes(Random(len(kind)).randbytes(2 * m_size))
        files = [tmp_path / name for name in ("t.json", "n.json")]
        assert main(["build", "--code", kind, *flags, "--source", str(src),
                     "--out", str(place)]) == 0
        assert main(["repair", "--placement", str(place), "--node", "1,2",
                     "--out-transcript", str(files[0]), "--out-node", str(files[1])]) == 0
        yield from (path.read_text() for path in (place, *files))
    out, cfg = tmp_path / "out.json", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "L": 2, "code": "msr0-div", "seed": 3}))
    for argv in (["params", *FIG4, "--epsilon", "0", "--mode", "mbr"],
                 ["params", "--n", "6", "--k", "3", "--L", "2", "--epsilon", "2/5",
                  "--mode", "msr"],
                 ["capacity", *FIG4, "--alpha", "3", "--beta-i", "1", "--beta-c", "0"]):
        assert main([*argv, "--out", str(out)]) == 0
        yield out.read_text()
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    yield re.sub(r'("elapsed_ms":\s*)[^,}\s]+', r"\1null", out.read_text())


# SHA-256 of written_files as the indented writer of earlier versions wrote
# them, taken from that writer itself
INDENTED_DIGEST = "9a9b767f294688dcbd8b10fa100df0af1846247d81d77eac3b07a2b546e45a4d"


def test_compact_files_decode_to_the_indented_files_objects(tmp_path):
    """Each file is one line of compact sorted-key JSON, and decodes to the
    object the indented writer wrote for the same input: only whitespace
    changed."""
    digest = hashlib.sha256()
    for text in written_files(tmp_path):
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        digest.update(indented(text).encode())
    assert digest.hexdigest() == INDENTED_DIGEST


@pytest.mark.parametrize("kind", KIND_SYSTEMS)
def test_indented_files_still_read(tmp_path, capsys, kind):
    """A placement in the indented form repairs to the same transcript and
    node files as its compact form and reconstructs to the payload; indented
    transcript and node files decode to the compact ones' objects."""
    from clustercodes.placement import load_json, placement_from_obj
    payload, place = build_kind(tmp_path, capsys, kind, 2)
    old = tmp_path / "indented.json"
    old.write_text(indented(place.read_text()))
    assert placement_from_obj(load_json(old.read_text())).holdings == \
        placement_from_obj(load_json(place.read_text())).holdings
    written = []
    for path in (place, old):
        repair, reconstruct = load_commands(tmp_path, path)
        for argv in (repair, reconstruct):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert (tmp_path / "x.bin").read_bytes() == payload
        written.append([(tmp_path / name).read_text() for name in ("t.json", "n.json")])
    assert written[0] == written[1]
    for text in written[0]:
        assert load_json(indented(text)) == load_json(text)


@pytest.mark.parametrize("idx", [True, 1.0, "1"])
def test_symbol_idx_equal_to_an_integer_still_refused(tmp_path, capsys, idx):
    """idx 1 written as true, 1.0 or "1": equal to the right index in Python,
    refused by its type."""
    _, place = build_kind(tmp_path, capsys, "mbr0", 2)
    obj = json.loads(place.read_text())
    assert obj["nodes"][0]["symbols"][0]["idx"] == 1
    obj["nodes"][0]["symbols"][0]["idx"] = idx
    place.write_text(json.dumps(obj))
    for argv in load_commands(tmp_path, place):
        code, _, err = run(capsys, *argv)
        assert code == 3, (argv[0], err)
        assert "not an integer" in err and "Traceback" not in err


def test_byte_boundary_roundtrips():
    """One byte per symbol over GF(2^8), a big-endian pair over GF(2^16)."""
    from clustercodes.cli import bytes_to_symbols, symbols_to_bytes
    from clustercodes.galois import field_create
    data = Random(5).randbytes(64)
    gf8, gf16 = field_create(8), field_create(16)
    assert bytes_to_symbols(data, gf8) == list(data)
    wide = bytes_to_symbols(data, gf16)
    assert wide == [data[i] << 8 | data[i + 1] for i in range(0, len(data), 2)]
    for gf, symbols in ((gf8, list(data)), (gf16, wide)):
        assert symbols_to_bytes(symbols, gf) == data
        assert bytes_to_symbols(b"", gf) == [] and symbols_to_bytes([], gf) == b""


def test_odd_payload_over_gf16_exit_2(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(7))
    code, _, err = run(capsys, "build", "--code", "mbr0", "--n", "6", "--k", "3",
                       "--L", "2", "--field-m", "16", "--source", str(src),
                       "--out", str(tmp_path / "p.json"))
    assert code == 2, err
    assert "not a multiple of 2" in err and "Traceback" not in err


def test_shared_parser_writes_what_a_fresh_process_writes(tmp_path):
    """main reuses one parser: a build with --chi and --dump-generator, then
    one with neither, each write what `python -m clustercodes` writes in a new
    process; the second call takes no chi and writes no generator."""
    src = tmp_path / "src.bin"
    src.write_bytes(Random(6).randbytes(18))  # M = 18 for mbr at chi 3, 3 for mbr0
    shape = ["--n", "6", "--k", "3", "--L", "2", "--source", str(src)]
    calls = [["build", "--code", "mbr", "--chi", "3", *shape],
             ["build", "--code", "mbr0", *shape]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for i, argv in enumerate(calls):
        outs = [tmp_path / f"{who}-{i}.json" for who in ("here", "fresh")]
        gens = [tmp_path / f"{who}-{i}.csv" for who in ("here", "fresh")]
        extra = [["--out", str(out)] + (["--dump-generator", str(gen)] if i == 0 else [])
                 for out, gen in zip(outs, gens)]
        assert main(argv + extra[0]) == 0
        proc = subprocess.run([sys.executable, "-m", "clustercodes", *argv, *extra[1]],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert outs[0].read_text() == outs[1].read_text()
        assert [gen.exists() for gen in gens] == [i == 0] * 2
        if i == 0:
            assert gens[0].read_text() == gens[1].read_text()
