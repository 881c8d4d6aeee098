"""The code kinds, their parameters, and one engine serving all of them:
TABLE is the one list of kinds and gives each its mode, its domain and
declared parameters, its construction (layout, component codes and repair
plan; see construction.py) and its build-time search; build, repair,
regenerate and reconstruct run any construction. A repair plan only says
what each helper sends: the engine solves how the lost symbols follow from
the sends once per failed node, on the code's generator."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from numbers import Rational
from typing import Any, Callable, NamedTuple

from . import mbr, msr
from .capacity import (derive, mbr_filesize_pos, mbr_filesize_zero,
                       mbr_theta_pos, mbr_theta_zero)
from .construction import Construction, RepairPlan
from .errors import (FormatError, InconsistentSharesError, InsufficientDataError,
                     ParamError, RegimeError)
from .galois import GF, field_create, field_for_codeword_length
from .mdscodec import LinearMap, Matrix, mat_solve, rs_decode, rs_encode
from .placement import Holding, Placement, RepairTranscript, as_int
from .topology import ClusterTopology, NodeId


def parse_rational(text: str | int | Fraction) -> Fraction:
    """A 'p/q' string or a rational number as an exact Fraction; anything
    else, floats included, is a ParamError."""
    if not isinstance(text, (str, Rational)):
        raise ParamError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParamError(f"not an exact rational: {text!r}") from e


def resolve_chi(chi: int | None, epsilon: Fraction | None) -> tuple[int | None, Fraction | None]:
    """Normalize the chi/epsilon pair; exactly one may be given."""
    if chi is not None and chi < 1:
        raise ParamError(f"chi must be a positive integer, got {chi}")
    if chi is not None and epsilon is not None and Fraction(1, chi) != epsilon:
        raise ParamError(f"chi={chi} and epsilon={epsilon} disagree")
    if chi is None and epsilon is not None and epsilon > 0:
        if epsilon.numerator != 1:
            return None, epsilon
        chi = epsilon.denominator
    if chi is not None and epsilon is None:
        epsilon = Fraction(1, chi)
    return chi, epsilon


def _regime(holds: bool, kind: str, need: str, *args: Any) -> None:
    """A condition that only rules this kind out: RegimeError, its message
    formatted with args only when it is raised."""
    if not holds:
        raise RegimeError(f"{kind} needs " + need.format(*args))


def _clustered(kind: str, top: ClusterTopology) -> None:
    """Clusters of n_I >= 2 nodes: no kind covers single-node clusters at a
    ratio these kinds take, so this is a ParamError."""
    if top.n_I < 2:
        raise ParamError(f"{kind} needs clusters of n_I >= 2 nodes, got n_I={top.n_I}")


# Each kind's domain and declared per-instance parameters: (kind, top, chi,
# eps) -> params, for chi and eps that _declared has resolved and checked.
# The ratio condition comes before the cluster check, so that inputs at a
# ratio no kind takes select no kind, whatever n_I is.

def _mbr0(kind, top, chi, eps):
    _regime(not eps, kind, "epsilon = 0, got {}", eps)
    _clustered(kind, top)
    return {"alpha": top.n_I - 1, "beta_i": 1, "beta_c": 0, "gamma": top.n_I - 1,
            "M": mbr_filesize_zero(top), "theta": mbr_theta_zero(top), "epsilon": Fraction(0)}


def _mbr(kind, top, chi, eps):
    _regime(chi is not None, kind, "epsilon = 1/chi for an integer chi, got {}", eps)
    _clustered(kind, top)
    alpha = (top.n_I - 1) * chi + (top.n - top.n_I)
    return {"alpha": alpha, "beta_i": chi, "beta_c": 1, "gamma": alpha, "chi": chi,
            "M": mbr_filesize_pos(top, chi), "theta": mbr_theta_pos(top, chi),
            "epsilon": Fraction(1, chi)}


def _msr0_div(kind, top, chi, eps):
    n, k, n_i = top.n, top.k, top.n_I
    _regime(not eps, kind, "epsilon = 0, got {}", eps)
    _clustered(kind, top)
    _regime(k % n_i == 0, kind, "n_I | k, got n_I={}, k={}", n_i, k)
    return {"alpha": n_i, "beta_i": n_i, "beta_c": 0, "gamma": (n_i - 1) * n_i,
            "M": k * (n_i - 1), "theta": n * n_i, "epsilon": Fraction(0)}


def _msr0_nondiv(kind, top, chi, eps):
    n, k, n_i = top.n, top.k, top.n_I
    _regime(not eps, kind, "epsilon = 0, got {}", eps)
    _clustered(kind, top)
    _regime(k % n_i != 0, kind, "n_I to not divide k, got n_I={}, k={}", n_i, k)
    return {"alpha": 1, "beta_i": 1, "beta_c": 0, "gamma": n_i - 1,
            "M": k - derive(top).q, "theta": n, "epsilon": Fraction(0)}


def _msr_stacked(kind, top, chi, eps):
    n, k, ratio = top.n, top.k, Fraction(1, top.n - top.k)
    _regime(eps is None or eps == ratio, kind, "epsilon = 1/(n-k) = {}, got {}", ratio, eps)
    _regime(n == k * top.L, kind, "n = k*L, got n={}, k*L={}", n, k * top.L)
    return {"alpha": n - k, "beta_i": n - k, "beta_c": 1, "gamma": k * (n - k),
            "M": k * (n - k), "theta": n * (n - k), "epsilon": ratio}


def _msr_wrapped(kind, top, chi, eps):
    n, k, n_i = top.n, top.k, top.n_I
    _regime(chi is not None and eps >= Fraction(1, n - k), kind,
            "epsilon = 1/chi in [1/(n-k), 1] for an integer chi, got {}", eps)
    _regime(n == 2 * k - 1, kind, "n = 2k-1 for its product-matrix base, got n={}, k={}", n, k)
    return {"alpha": n - k, "beta_i": chi, "beta_c": 1, "gamma": (n_i - 1) * chi + (n - n_i),
            "M": k * (n - k), "theta": n * (n - k), "chi": chi, "epsilon": eps}


class Kind(NamedTuple):
    """A row of TABLE: everything the package knows of one code kind."""
    mode: str  # "mbr" or "msr"
    declared: Callable[..., dict[str, Any]]  # its domain and declared params
    construction: Callable[[ClusterTopology, GF, dict], Construction]
    search: Callable[[ClusterTopology, GF], dict] = lambda top, gf: {}  # params a build records
    # FormatError unless a loaded placement's params hold what search records
    recorded: Callable[[ClusterTopology, GF, dict], None] = lambda top, gf, params: None


# Every code kind. Within a mode, select_kind prefers the earlier row.
TABLE = {
    "mbr0": Kind("mbr", _mbr0, mbr.transfer),
    "mbr": Kind("mbr", _mbr, mbr.transfer),
    "msr0-div": Kind("msr", _msr0_div, msr.div),
    "msr0-nondiv": Kind("msr", _msr0_nondiv, msr.nondiv, msr.nondiv_search,
                        msr.nondiv_recorded),
    "msr-stacked": Kind("msr", _msr_stacked, msr.stacked),
    "msr-wrapped": Kind("msr", _msr_wrapped, msr.wrapped,
                        lambda top, gf: {"base": "product-matrix"}),
}


def _declared(kind: str, top: ClusterTopology, chi: int | None,
              epsilon: Fraction | None) -> dict[str, Any]:
    row = TABLE.get(kind)
    if row is None:
        raise ParamError(f"unknown code kind {kind!r}")
    if top.k >= top.n:
        raise ParamError(f"need k < n, got k={top.k}, n={top.n}")
    chi, epsilon = resolve_chi(chi, epsilon)
    if epsilon is not None and not 0 <= epsilon <= 1:
        raise ParamError(f"epsilon must lie in [0, 1], got {epsilon}")
    return row.declared(kind, top, chi, epsilon)


def declared_params(kind: str, top: ClusterTopology, chi: int | None = None,
                    epsilon: Fraction | None = None) -> dict[str, Any]:
    """Per-instance (alpha, beta_i, beta_c, gamma, M, theta) of a kind's code.
    Inputs no kind covers (k >= n, epsilon outside [0, 1], ...) are a
    ParamError; a condition that only rules this kind out is a RegimeError,
    which names the kind of the same mode that covers the inputs, if any."""
    try:
        return _declared(kind, top, chi, epsilon)
    except RegimeError as e:
        try:
            other = select_kind(TABLE[kind].mode, top, chi, epsilon)
        except ParamError:
            other = None
        raise RegimeError(f"{e}; {other} covers these inputs" if other else str(e)) from None


def select_kind(mode: str, top: ClusterTopology, chi: int | None = None,
                eps: Fraction | None = None) -> str | None:
    """The first kind of the mode whose domain holds the inputs, or None when
    no construction covers them; inputs outside every domain raise ParamError."""
    for kind in (kind for kind, row in TABLE.items() if row.mode == mode):
        try:
            _declared(kind, top, chi, eps)
        except RegimeError:
            continue
        return kind
    return None


def default_field(kind: str, top: ClusterTopology, chi: int | None = None,
                  epsilon: Fraction | None = None) -> GF:
    """GF(2^8) when the code's evaluation points fit, otherwise GF(2^16): the
    bandwidth codes evaluate at theta points, the others at n."""
    theta = declared_params(kind, top, chi, epsilon)["theta"]
    return field_for_codeword_length(theta if TABLE[kind].mode == "mbr" else top.n)


def construction(kind: str, top: ClusterTopology, gf: GF, params: dict) -> Construction:
    """The construction of a placement's code. Of params, only chi and the
    msr0-nondiv evaluation points and parity weights define it."""
    return _construction(kind, top, gf, params.get("chi"),
                         tuple(params.get("eval_points", ())),
                         tuple(params.get("parity_weights", ())))


@lru_cache(maxsize=32)
def _construction(kind: str, top: ClusterTopology, gf: GF, chi: int | None,
                  points: tuple[int, ...], weights: tuple[int, ...]) -> Construction:
    declared = declared_params(kind, top, chi)
    return TABLE[kind].construction(top, gf, dict(declared, eval_points=points,
                                                  parity_weights=weights))


@lru_cache(maxsize=32)
def _maps(con: Construction, gf: GF) -> tuple[LinearMap | None, ...]:
    """Per component, the compiled map of a generator that is not a
    Reed-Solomon code's; those encode through rs_encode."""
    return tuple(None if comp.rs else LinearMap(gf, comp.generator)
                 for comp in con.components)


def _interleave(columns: list[list[int]], idxs: tuple[int, ...], s: int,
                theta: int) -> Holding:
    """The holding of a node storing symbol idxs[r] with value columns[r][inst]
    in each instance, instance-major in layout order."""
    return list(zip(_indices(idxs, s, theta), chain.from_iterable(zip(*columns))))


def _word(con: Construction, gf: GF, source: list[int]) -> list[list[int]]:
    """Per symbol index (0 unused), its value in each of the len(source)/M
    instances. Each component encodes all of them in one call, on the block
    of its source symbols' per-instance values."""
    m_size = con.params["M"]
    stripes = [source[r::m_size] for r in range(m_size)]
    word: list[list[int]] = [[]] * (con.params["theta"] + 1)
    for comp, lin in zip(con.components, _maps(con, gf)):
        block = stripes[comp.msg]
        for i, col in zip(comp.idx, rs_encode(comp.rs, block) if comp.rs else lin(block)):
            word[i] = col
    return word


@lru_cache(maxsize=32)
def _columns(con: Construction, gf: GF) -> list[list[int]]:
    """The generator G's column of each symbol index: the encode of the M
    unit sources, one instance each."""
    m_size = con.params["M"]
    return _word(con, gf, [int(r == c) for r in range(m_size) for c in range(m_size)])


def _encode(con: Construction, gf: GF, source: list[int]) -> dict[NodeId, Holding]:
    word, s = _word(con, gf, source), len(source) // con.params["M"]
    return {node: _interleave([word[i] for i in idxs], idxs, s, con.params["theta"])
            for node, idxs in con.layout.items()}


def build(kind: str, top: ClusterTopology, source: list[int], gf: GF,
          chi: int | None = None, epsilon: Fraction | None = None) -> Placement:
    """Encode source, s = len(source)/M instances of M symbols each."""
    params = declared_params(kind, top, chi, epsilon)
    if not source or len(source) % params["M"]:
        raise ParamError(
            f"source length {len(source)} is not a positive multiple of M={params['M']}")
    if min(source) < 0 or max(source) >= gf.order:
        raise ParamError(f"source holds a value outside GF(2^{gf.m})")
    params |= TABLE[kind].search(top, gf)
    con = construction(kind, top, gf, params)
    params |= {"epsilon": str(params["epsilon"]), "s": len(source) // params["M"]}
    return Placement(kind, top, gf, params, _encode(con, gf, source))


def generator(p: Placement) -> Matrix:
    """The M x theta encoding matrix: row r is what unit source r encodes to."""
    con = construction(p.kind, p.topology, p.gf, p.params)
    return Matrix(con.params["M"], con.params["theta"],
                  [list(row) for row in zip(*_columns(con, p.gf)[1:])])


def _engine(p: Placement, nodes: list[NodeId]) -> tuple[Construction, int]:
    """p's construction and instance count, once the nodes are known to it."""
    con = construction(p.kind, p.topology, p.gf, p.params)
    for node in nodes:
        if node not in con.layout:
            raise ParamError(f"{node} is not a node of the topology {p.topology}")
    s = as_int(p.instances, "instance count s")
    if s < 1:
        raise FormatError(f"instance count s={s} is not positive")
    return con, s


@lru_cache(maxsize=1024)
def _indices(idxs: tuple[int, ...], s: int, theta: int) -> tuple[int, ...]:
    """The global symbol indices of a node holding idxs in each of s instances."""
    return tuple(base + i for base in range(0, s * theta, theta) for i in idxs)


def _content(p: Placement, con: Construction, nodes: list[NodeId],
             s: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per node, its layout and its stored values, instance-major in layout
    order, once its holding is checked to be exactly those symbols, in the field."""
    theta = con.params["theta"]
    out = []
    for node in nodes:
        idxs, holding = con.layout[node], p.holdings.get(node)
        ids, vals = zip(*holding) if holding else ((), ())
        if ids != _indices(idxs, s, theta):
            raise FormatError(f"{node} does not hold exactly its {len(idxs)} symbols "
                              f"for each of s={s} instances")
        if min(vals) < 0 or max(vals) >= p.gf.order:
            raise FormatError(f"{node} holds a value outside GF(2^{p.gf.m})")
        out.append((idxs, vals))
    return out


def check_holdings(p: Placement, nodes: list[NodeId]) -> None:
    """The check every engine call runs on the nodes it reads: each must be a
    node of p's topology (else ParamError) and hold exactly its layout's
    symbols for each of the s instances, with values in the field (else
    FormatError); a node missing from p.holdings holds nothing."""
    con, s = _engine(p, nodes)
    _content(p, con, nodes, s)


def params_mismatch(p: Placement, want: dict[str, Any]) -> tuple[str, Any, Any] | None:
    """The first key of want on which p's params disagree, as (key, wanted,
    actual); epsilon compares as an exact rational. None when all agree."""
    for key, value in want.items():
        if key == "epsilon":
            actual, value = p.epsilon(), parse_rational(value)
        else:
            actual = p.params.get(key)
        if actual != value:
            return key, value, actual
    return None


def check_params(p: Placement) -> None:
    """Raise FormatError unless p's params are those a build of its kind
    records: a kind of TABLE, an integer chi where there is one, a 'p/q'
    epsilon, a topology and chi in the kind's domain, the declared
    parameters and what the kind's search records (its row's `recorded`
    check). A placement read from a file is checked once on load; the engine
    itself trusts its params."""
    if p.kind not in TABLE:
        raise FormatError(f"unknown placement kind {p.kind!r}")
    chi, eps = p.params.get("chi"), p.params.get("epsilon")
    if chi is not None:
        as_int(chi, "placement chi")
    bad_eps = FormatError(f"placement epsilon {eps!r} is not an exact rational 'p/q'")
    if type(eps) is not str:
        raise bad_eps
    try:
        Fraction(eps)
    except (ValueError, ZeroDivisionError) as e:
        raise bad_eps from e
    try:
        declared = declared_params(p.kind, p.topology, chi)
    except ParamError as e:
        raise FormatError(f"placement params outside its kind's domain: {e}") from e
    bad = params_mismatch(p, declared)
    if bad is not None:
        key, want, actual = bad
        raise FormatError(f"placement param {key}={actual}, but {p.kind} declares {want}")
    TABLE[p.kind].recorded(p.topology, p.gf, p.params)


class _Repair(NamedTuple):
    """A repair plan with its arithmetic compiled into linear maps."""
    plan: RepairPlan
    mixers: tuple[NodeId, ...]  # the helpers that send combinations, in plan order
    mix: LinearMap  # their stored symbols, alpha per mixer -> each combination send
    solve: LinearMap  # the received vector -> the failed node's symbols


@lru_cache(maxsize=256)
def _plan(con: Construction, gf: GF, failed: NodeId) -> _Repair:
    """Compile the plan for `failed`: run its sends on G's columns, which
    gives R (M x received entries), and solve R X = L for L, G's columns of
    the failed node's symbols. Then X maps every received vector to the lost
    symbols, for every payload. A plan whose sends do not determine them, in
    which the failed node sends, or in which a helper sends a symbol it does
    not store, is a ParamError naming the node."""
    plan, alpha, m_size = con.repair_plan(failed), con.params["alpha"], con.params["M"]
    if plan.get(failed):
        raise ParamError(f"the repair plan of {failed} reads {failed} itself")
    for h, sends in plan.items():
        stray = [i for i in sends if isinstance(i, int) and i not in con.layout.get(h, ())]
        if stray:
            raise ParamError(f"the repair plan of {failed} has {h} send symbol {stray[0]}, "
                             f"which {h} does not store")
    combos = [(h, send[0]) for h, sends in plan.items() for send in sends
              if not isinstance(send, int)]
    mixers = tuple(dict.fromkeys(h for h, _ in combos))
    rows = [[0] * len(combos) for _ in range(len(mixers) * alpha)]
    for col, (h, coeffs) in enumerate(combos):
        for a, c in enumerate(coeffs):
            rows[mixers.index(h) * alpha + a][col] = c
    mix = LinearMap(gf, Matrix(len(rows), len(combos), rows))
    cols = _columns(con, gf)
    mixed = iter(mix([cols[i] for h in mixers for i in con.layout[h]]) if mixers else ())
    received = [cols[send] if isinstance(send, int) else next(mixed)
                for sends in plan.values() for send in sends]
    lost = [cols[i] for i in con.layout[failed]]
    res = mat_solve(gf, *(Matrix(m_size, len(c), [[x[r] for x in c] for r in range(m_size)])
                          for c in (received, lost)))
    if res.solution is None:
        raise ParamError(f"the repair plan of {failed} does not determine its symbols")
    return _Repair(plan, mixers, mix, LinearMap(gf, res.solution))


def repair(p: Placement, failed: NodeId) -> tuple[RepairTranscript, Holding]:
    """Run the repair plan for `failed` on every instance: the transcript of
    what each of the n-1 helpers sent, and the regenerated holding."""
    con, s = _engine(p, [failed])
    plan, mixers, mix, _ = _plan(con, p.gf, failed)
    theta, alpha = con.params["theta"], con.params["alpha"]
    senders = [h for h, sends in plan.items() if sends]
    content = dict(zip(senders, _content(p, con, senders, s)))
    mixed = iter(mix([content[h][1][a::alpha] for h in mixers for a in range(alpha)])
                 if mixers else ())
    contributions: dict[NodeId, list[tuple[int | None, int]]] = {h: [] for h in plan}
    for helper in senders:
        idxs, vals = content[helper]
        columns = []  # per send and copy: the (index, value) it sends in each instance
        for send in plan[helper]:
            if isinstance(send, int):
                r = idxs.index(send)
                columns.append(list(zip(range(send, send + s * theta, theta),
                                        vals[r::alpha])))
            else:
                columns += [[(None, v) for v in next(mixed)]] * send[1]
        contributions[helper] = [x for row in zip(*columns) for x in row]
    transcript = RepairTranscript(failed, contributions, s * con.params["beta_i"],
                                  s * con.params["beta_c"],
                                  sum(len(v) for v in contributions.values()))
    return transcript, regenerate(p, transcript)


def regenerate(p: Placement, transcript: RepairTranscript) -> Holding:
    """Rebuild the failed node's holding from transcript contents alone."""
    con, s = _engine(p, [transcript.failed])
    plan, _, _, solve = _plan(con, p.gf, transcript.failed)
    received = []  # per entry of the received vector: its value in each instance
    for helper, sends in plan.items():
        if not sends:
            continue
        # where in one instance's share of the helper's symbols each send starts
        firsts, width = [], 0
        for send in sends:
            firsts.append(width)
            width += 1 if isinstance(send, int) else send[1]
        syms = transcript.contributions.get(helper, [])
        if len(syms) != s * width:
            raise FormatError(f"{helper} sent {len(syms)} symbols, the repair plan "
                              f"has {s * width}")
        _, vals = zip(*syms)
        received += [vals[f::width] for f in firsts]
    return _interleave(solve(received), con.layout[transcript.failed], s, con.params["theta"])


def reconstruct(p: Placement, nodes: list[NodeId]) -> list[int]:
    """Decode the source from >= k distinct nodes, one decoding component at
    a time and all s instances at once: Reed-Solomon components by rs_decode,
    the others by elimination."""
    unique = list(dict.fromkeys(nodes))
    con, s = _engine(p, unique)
    if len(unique) < p.topology.k:
        raise InsufficientDataError(
            f"{len(unique)} distinct nodes contacted, need k={p.topology.k}")
    alpha, m_size = con.params["alpha"], con.params["M"]
    held: dict[int, list[list[int]]] = {}  # symbol -> per copy, its value in each instance
    for idxs, vals in _content(p, con, unique, s):
        for r, i in enumerate(idxs):
            held.setdefault(i, []).append(list(vals[r::alpha]))
    out = [0] * (s * m_size)
    for comp in con.components:
        if not comp.decodes:
            continue
        # every copy goes in: redundant ones are checked by the decode
        shares = [(c, v) for c, i in enumerate(comp.idx) for v in held.get(i, ())]
        if comp.rs:
            msg = rs_decode(comp.rs, [(c + 1, v) for c, v in shares])
        else:
            system = Matrix(len(shares), comp.generator.rows,
                            [comp.generator.column(c) for c, _ in shares])
            res = mat_solve(p.gf, system, Matrix(len(shares), s, [v for _, v in shares]))
            if res.solution is None:
                raise InconsistentSharesError("contacted symbols are inconsistent")
            if res.underdetermined:
                raise InsufficientDataError("contacted symbols do not pin the source")
            msg = res.solution.data
        for i, row in enumerate(msg, start=comp.msg.start):
            out[i::m_size] = row
    return out


def parse_config(obj: dict) -> dict[str, Any]:
    """Validate a config object: n, k, L, code, chi|epsilon, field, seed, expect.

    Out-of-range parameter values, inputs outside the kind's domain included,
    surface as ParamError; structural problems (missing keys, wrong types,
    unknown kinds) as FormatError.
    """
    try:
        top = ClusterTopology(*(as_int(obj[key], f"config {key}")
                                for key in ("n", "k", "L")))
        kind = obj["code"]
        if kind not in TABLE:
            raise FormatError(f"unknown code kind {kind!r}")
        chi, expect = obj.get("chi"), obj.get("expect", {})
        if chi is not None:
            as_int(chi, "config chi")
        if type(expect) is not dict:
            raise FormatError(f"config expect {expect!r} is not an object")
        if "epsilon" in expect:
            try:
                parse_rational(expect["epsilon"])
            except ParamError as e:
                raise FormatError(f"config expect epsilon {expect['epsilon']!r} is not "
                                  f"an exact rational") from e
        if "epsilon" in obj and type(obj["epsilon"]) not in (str, int):
            raise FormatError(f"config epsilon {obj['epsilon']!r} is not a 'p/q' string "
                              f"or an integer")
        epsilon = parse_rational(obj["epsilon"]) if "epsilon" in obj else None
        if "field" in obj:
            fobj = obj["field"]
            gf = field_create(as_int(fobj["m"], "config field m"),
                              as_int(fobj["poly"], "config field poly"))
        else:
            gf = None  # promoted automatically once the code size is known
        declared_params(kind, top, chi, epsilon)  # the kind's domain holds the inputs
        return {"topology": top, "kind": kind, "chi": chi, "epsilon": epsilon,
                "gf": gf, "seed": as_int(obj.get("seed", 0), "config seed"),
                "expect": expect}
    except (FormatError, ParamError):
        raise
    except KeyError as e:
        raise FormatError(f"config missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad config value: {e}") from e
