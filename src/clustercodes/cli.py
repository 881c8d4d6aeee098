"""Command-line front end.

Subcommands: params, capacity, build, repair, reconstruct, verify, sweep.
Exit codes: 0 success, 1 verification/data failure, 2 parameter or regime
error, 3 I/O or format error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import codes, harness
from .capacity import capacity_eval, msr_point
from .errors import (FormatError, InconsistentSharesError, ParamError)
from .galois import field_create
from .placement import (dump_json, hex_symbols, load_json, node_to_obj,
                        placement_from_obj, placement_to_obj, transcript_to_obj)
from .topology import ClusterTopology, NodeId

EXIT_OK, EXIT_VERIFY, EXIT_PARAM, EXIT_FORMAT = 0, 1, 2, 3


def _rat(x):
    """Exact JSON value: plain int when integral, else a 'p/q' string."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def parse_node(text: str) -> NodeId:
    try:
        l, j = (int(part) for part in text.split(","))
    except ValueError as e:
        raise ParamError(f"node must be written 'l,j', got {text!r}") from e
    return NodeId(l, j)


def bytes_to_symbols(data: bytes, gf) -> list[int]:
    if gf.m % 8 != 0:
        raise ParamError(f"byte payloads need m in {{8, 16}}, got m={gf.m}")
    width = gf.m // 8
    if width == 1:
        return list(data)
    if len(data) % width != 0:
        raise ParamError(f"payload length {len(data)} is not a multiple of {width}")
    return [int.from_bytes(data[i:i + width], "big") for i in range(0, len(data), width)]


def symbols_to_bytes(symbols: list[int], gf) -> bytes:
    width = gf.m // 8
    if width == 1:
        return bytes(symbols)
    return b"".join(s.to_bytes(width, "big") for s in symbols)


def _read(path: str, binary: bool = False) -> str | bytes:
    """The one reader of input files: their bytes, or with binary False their
    UTF-8 text; a file that cannot be read or decoded is a FormatError."""
    try:
        data = Path(path).read_bytes()
        return data if binary else data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _load_placement(path: str):
    p = placement_from_obj(load_json(_read(path)))
    codes.check_params(p)
    return p


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_params(args) -> int:
    top = ClusterTopology(args.n, args.k, args.L)
    eps = None if args.epsilon is None else codes.parse_rational(args.epsilon)
    if eps is None and args.chi is None:
        eps = Fraction(0)
    chi, eps = codes.resolve_chi(args.chi, eps)
    kind = codes.select_kind(args.mode, top, chi, eps)
    if kind is not None:
        out = dict(codes.declared_params(kind, top, chi, eps), code=kind)
    elif args.mode == "mbr":
        # No integer chi: normalize beta_c/beta_I to the reduced fraction.
        beta_c, beta_i = eps.numerator, eps.denominator
        alpha = (top.n_I - 1) * beta_i + (top.n - top.n_I) * beta_c
        out = {"alpha": alpha, "beta_i": beta_i, "beta_c": beta_c,
               "gamma": alpha, "M": capacity_eval(top, alpha, beta_i, beta_c),
               "theta": None, "epsilon": eps, "code": None}
    else:
        m_size = top.k * (top.n - top.k)
        alpha, gamma = msr_point(top, eps, m_size)
        out = {"alpha": alpha, "beta_i": 1 / eps, "beta_c": 1, "gamma": gamma,
               "M": m_size, "theta": None, "epsilon": eps, "code": None}
    _write(args.out, dump_json({key: _rat(val) for key, val in out.items()}))
    return EXIT_OK


def cmd_capacity(args) -> int:
    top = ClusterTopology(args.n, args.k, args.L)
    value = capacity_eval(top, codes.parse_rational(args.alpha),
                          codes.parse_rational(args.beta_i),
                          codes.parse_rational(args.beta_c))
    _write(args.out, dump_json({"capacity": _rat(value)}))
    return EXIT_OK


def _build_config(args) -> dict:
    obj = load_json(_read(args.config)) if args.config else {}
    for key in ("n", "k", "L", "code", "chi", "epsilon"):
        val = getattr(args, key, None)
        if val is not None:
            obj[key] = val
    if args.field_m is not None or args.field_poly is not None:
        obj["field"] = {"m": args.field_m or 8,
                        "poly": args.field_poly or field_create(args.field_m or 8).poly}
    return obj


def cmd_build(args) -> int:
    config = codes.parse_config(_build_config(args))
    gf = config["gf"] or codes.default_field(config["kind"], config["topology"],
                                             config["chi"], config["epsilon"])
    source = bytes_to_symbols(_read(args.source, binary=True), gf)
    p = codes.build(config["kind"], config["topology"], source, gf,
                    config["chi"], config["epsilon"])
    _write(args.out, dump_json(placement_to_obj(p)))
    if args.dump_generator:
        rows = (",".join(hex_symbols(row, p.gf)) for row in codes.generator(p).data)
        _write(args.dump_generator, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_repair(args) -> int:
    p = _load_placement(args.placement)
    failed = parse_node(args.node)
    transcript, regenerated = codes.repair(p, failed)
    _write(args.out_transcript, dump_json(transcript_to_obj(transcript, p.gf)))
    _write(args.out_node, dump_json(node_to_obj(failed, regenerated, p.gf)))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    p = _load_placement(args.placement)
    nodes = [parse_node(text) for text in args.nodes]
    symbols = codes.reconstruct(p, nodes)
    data = symbols_to_bytes(symbols, p.gf)
    if args.out is None or args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.acceptance:
        configs = harness.acceptance_systems()
    else:
        if not args.config:
            raise ParamError("verify needs --config or --acceptance")
        raw = load_json(_read(args.config), arrays=True)
        if raw == []:
            raise FormatError(f"{args.config} lists no configs")
        configs = [codes.parse_config(obj)
                   for obj in (raw if isinstance(raw, list) else [raw])]
    reports = harness.run_suite(configs)
    objs = [harness.report_to_obj(r) for r in reports]
    _write(args.out, dump_json(objs[0] if len(objs) == 1 else objs))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _sweep_rows(n_max: int):
    for n in range(2, n_max + 1):
        for big_l in range(1, n + 1):
            if n % big_l != 0:
                continue
            for k in range(1, n):
                yield ClusterTopology(n, k, big_l)


def cmd_sweep(args) -> int:
    lines = ["n,k,L,check,pass"]
    all_ok = True
    for top in _sweep_rows(args.n_max):
        for name, ok in harness.identity_checks(top):
            lines.append(f"{top.n},{top.k},{top.L},{name},{str(ok).lower()}")
            all_ok = all_ok and ok
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercodes",
        description="Capacity-achieving regenerating codes for clustered storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="emit (alpha, gamma, beta_i, beta_c, M, theta)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--epsilon", help="exact ratio, e.g. 1/4 (default 0)")
    sp.add_argument("--chi", type=int, help="beta_I/beta_c; alternative to --epsilon")
    sp.add_argument("--mode", choices=("mbr", "msr"), required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("capacity", help="evaluate the capacity formula")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta-i", dest="beta_i", required=True)
    sp.add_argument("--beta-c", dest="beta_c", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("build", help="encode a byte payload into a placement")
    sp.add_argument("--config", help="JSON config; flags override its keys")
    sp.add_argument("--code", choices=list(codes.TABLE))
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--L", type=int)
    sp.add_argument("--chi", type=int)
    sp.add_argument("--epsilon")
    sp.add_argument("--field-m", type=int, dest="field_m")
    sp.add_argument("--field-poly", type=int, dest="field_poly")
    sp.add_argument("--source", required=True, help="raw bytes, one per symbol")
    sp.add_argument("--out", required=True)
    sp.add_argument("--dump-generator", dest="dump_generator",
                    help="also write the encoding matrix as hex CSV")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("repair", help="regenerate a failed node")
    sp.add_argument("--placement", required=True)
    sp.add_argument("--node", required=True, help="failed node as 'l,j'")
    sp.add_argument("--out-transcript", dest="out_transcript", required=True)
    sp.add_argument("--out-node", dest="out_node", required=True)
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("reconstruct", help="decode the payload from k nodes")
    sp.add_argument("--placement", required=True)
    sp.add_argument("--nodes", nargs="+", required=True, help="'l,j' per node")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--config", help="JSON config object or array")
    sp.add_argument("--acceptance", action="store_true",
                    help="verify the five built-in reference systems")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="closed-form identity checks as CSV")
    sp.add_argument("--n-max", dest="n_max", type=int, default=24)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of main and then shared:
    parse_args returns a new namespace each time and leaves the parser as it
    was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistentSharesError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except ParamError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAM
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
