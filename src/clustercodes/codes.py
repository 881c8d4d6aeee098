"""The code kinds, their parameters, and one engine serving all of them:
TABLE is the one list of kinds and gives each its mode, its domain and
declared parameters, its construction (layout, base code and its words,
repair plan; see construction.py) and its build-time search; build, repair,
regenerate and reconstruct run any construction. A repair plan only says
what each helper sends: the engine solves how the lost symbols follow from
the sends once per failed node, on the code's generator."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Rational
from operator import xor
from typing import Any, Callable, NamedTuple

from . import mbr, msr
from .capacity import (derive, mbr_filesize_pos, mbr_filesize_zero,
                       mbr_theta_pos, mbr_theta_zero)
from .construction import Construction
from .errors import (FormatError, InconsistentSharesError, InsufficientDataError,
                     ParamError, RegimeError)
from .galois import GF, field_create, field_for_codeword_length
from .mdscodec import (LinearMap, Matrix, _row_reduce, from_stripes, mat_solve, rs_decode,
                       rs_encode, to_stripes)
from .placement import Holding, Placement, RepairTranscript, as_int, holding_from_pairs
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
    record_keys: tuple[str, ...] = ()  # the names of the params search records
    # FormatError unless a loaded placement's params hold what search records
    recorded: Callable[[ClusterTopology, GF, dict], None] = lambda top, gf, params: None


# Every code kind. Within a mode, select_kind prefers the earlier row.
TABLE = {
    "mbr0": Kind("mbr", _mbr0, mbr.transfer),
    "mbr": Kind("mbr", _mbr, mbr.transfer),
    "msr0-div": Kind("msr", _msr0_div, msr.div),
    "msr0-nondiv": Kind("msr", _msr0_nondiv, msr.nondiv, msr.nondiv_search,
                        ("eval_points", "parity_weights", "d"), msr.nondiv_recorded),
    "msr-stacked": Kind("msr", _msr_stacked, msr.stacked),
    "msr-wrapped": Kind("msr", _msr_wrapped, msr.wrapped,
                        lambda top, gf: {"base": "product-matrix"}, ("base",),
                        msr.wrapped_recorded),
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
    """The construction of a placement's code. Of params, only chi and what
    the kind's search records (its row's `record_keys`) define it."""
    keys = TABLE[kind].record_keys
    recorded = [tuple(v) if type(v) is list else v for v in map(params.get, keys)]
    return _construction(kind, top, gf, params.get("chi"), tuple(recorded))


@lru_cache(maxsize=32)
def _construction(kind: str, top: ClusterTopology, gf: GF, chi: int | None,
                  recorded: tuple[Any, ...]) -> Construction:
    """The construction, given the values of its row's record_keys."""
    row = TABLE[kind]
    declared = declared_params(kind, top, chi)
    return row.construction(top, gf, dict(declared, **dict(zip(row.record_keys, recorded))))


@lru_cache(maxsize=32)
def _map(con: Construction, gf: GF, coords: tuple[int, ...]) -> LinearMap:
    """The map from a source slice to the base code's coordinates coords,
    compiled once per coordinate set: the encode of a base that is not a
    Reed-Solomon code (those encode through rs_encode), and the parity
    check of each contact set."""
    return LinearMap(gf, con.generator.take_columns(list(coords)))


def _summed(con: Construction, stripes: list[bytes]) -> list[bytes]:
    """The parity word's source: the sum of the words' slices of the source
    stripes, as the XOR of their stripes."""
    k, size = con.generator.rows, len(stripes[0])
    return [reduce(xor, (int.from_bytes(x, "big") for x in stripes[r::k])).to_bytes(size, "big")
            for r in range(k)]


def _word(con: Construction, gf: GF, stripes: list[bytes]) -> list[bytes]:
    """Per symbol index (0 unused), its stripe: the base code encodes every
    instance of each word in one call, on its slice of the source stripes,
    and the parity word on the sum of the slices."""
    word, k = [b""] * (con.params["theta"] + 1), con.generator.rows
    blocks = [(idx, stripes[t * k:(t + 1) * k]) for t, idx in enumerate(con.words)]
    if con.parity:
        blocks.append((con.parity, _summed(con, stripes)))
    for idx, block in blocks:
        code = (rs_encode(con.rs, block) if con.rs
                else _map(con, gf, tuple(range(len(idx)))).stripes(block))
        for i, col in zip(idx, code):
            word[i] = col
    return word


@lru_cache(maxsize=32)
def _columns(con: Construction, gf: GF) -> list[bytes]:
    """The generator G's column of each symbol index, as a stripe: the encode
    of the M unit sources, one instance each."""
    m_size = con.params["M"]
    unit = [int(r == c) for r in range(m_size) for c in range(m_size)]
    return _word(con, gf, to_stripes(unit, m_size, gf.width))


def _matrix(stripes: list[bytes], m_size: int, gf: GF) -> Matrix:
    """Stripes of M instances as the M x len(stripes) matrix of their values."""
    values, n = from_stripes(stripes, gf.width), len(stripes)
    return Matrix(m_size, n, [list(values[i * n:(i + 1) * n]) for i in range(m_size)])


def _instance_count(source: list[int], m_size: int, gf: GF) -> int:
    """s, for a source of s >= 1 instances of M field elements; anything else
    is a ParamError."""
    if not source or len(source) % m_size:
        raise ParamError(f"source length {len(source)} is not a positive multiple of M={m_size}")
    if min(source) < 0 or max(source) >= gf.order:
        raise ParamError(f"source holds a value outside GF(2^{gf.m})")
    return len(source) // m_size


def _stored(con: Construction, gf: GF, source: list[int], s: int) -> dict[NodeId, Holding]:
    """Per node, its holding of the encode of source's s instances."""
    word = _word(con, gf, to_stripes(source, con.params["M"], gf.width))
    return {node: Holding(idxs, tuple(word[i] for i in idxs), s, con.params["theta"], gf.width)
            for node, idxs in con.layout.items()}


def build(kind: str, top: ClusterTopology, source: list[int], gf: GF,
          chi: int | None = None, epsilon: Fraction | None = None) -> Placement:
    """Encode source, s = len(source)/M instances of M symbols each."""
    params = declared_params(kind, top, chi, epsilon)
    s = _instance_count(source, params["M"], gf)
    params |= TABLE[kind].search(top, gf)
    con = construction(kind, top, gf, params)
    params |= {"epsilon": str(params["epsilon"]), "s": s}
    return Placement(kind, top, gf, params, _stored(con, gf, source, s))


def encode(p: Placement, source: list[int]) -> dict[NodeId, Holding]:
    """Per node, the holding that encoding source under p's construction
    gives: what a build of source stores, without the build's search. A
    source other than p's s instances of M field elements is a ParamError."""
    con, s = _engine(p, [])
    if _instance_count(source, con.params["M"], p.gf) != s:
        raise ParamError(f"source of {len(source)} symbols is not the placement's "
                         f"s={s} instances of M={con.params['M']}")
    return _stored(con, p.gf, source, s)


def generator(p: Placement) -> Matrix:
    """The M x theta encoding matrix: row r is what unit source r encodes to."""
    con = construction(p.kind, p.topology, p.gf, p.params)
    return _matrix(_columns(con, p.gf)[1:], con.params["M"], p.gf)


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


def _content(p: Placement, con: Construction, nodes: list[NodeId],
             s: int) -> list[tuple[bytes, ...]]:
    """Per node, its stripes in layout order. A Holding of the node's layout,
    s and theta is checked by its stripes' types and lengths alone (so the
    engine maps them with LinearMap.apply, unchecked); anything else goes
    through holding_from_pairs, which checks that it holds exactly those
    symbols, with values in the field."""
    theta, w = con.params["theta"], p.gf.width
    out = []
    for node in nodes:
        idxs, holding = con.layout[node], p.holdings.get(node)
        if not (isinstance(holding, Holding) and holding.idxs == idxs
                and holding.theta == theta and holding.fits(s, w)):
            ids, vals = zip(*holding) if holding else ((), ())
            holding = holding_from_pairs(node, ids, vals, idxs, s, theta, p.gf)
        out.append(holding.stripes)
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
    parameters, what the kind's search records (its row's `recorded`
    check) and no other param but s. A placement read from a file is
    checked once on load; the engine itself trusts its params."""
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
    row = TABLE[p.kind]
    row.recorded(p.topology, p.gf, p.params)
    stray = sorted(p.params.keys() - declared.keys() - set(row.record_keys) - {"s"})
    if stray:
        raise FormatError(f"placement param {stray[0]} is not one that {p.kind} records")


class _Repair(NamedTuple):
    """A repair plan compiled into linear maps and wire layouts. The pool of
    a repair is the stored stripes of every sender, alpha per sender in plan
    order, then the combination sends in plan order."""
    senders: tuple[NodeId, ...]  # the helpers that send anything, in plan order
    mix_in: tuple[int, ...]  # the pool entries of the mixers' stored stripes, in plan order
    mix: LinearMap  # those stripes -> each combination send
    # per helper: its wire, one column per send and copy, as each column's
    # symbol (None: a combination) and its pool entry
    wire: dict[NodeId, tuple[tuple[int | None, ...], tuple[int, ...]]]
    received: tuple[tuple[NodeId, int, tuple[int, ...]], ...]  # per sender: its column
    # count and the columns that make the received vector
    solve: LinearMap  # the received vector -> the failed node's symbols


@lru_cache(maxsize=256)
def _plan(con: Construction, gf: GF, failed: NodeId) -> _Repair:
    """Compile the plan for `failed`: run its sends on G's columns, which
    gives R (M x received entries), and solve R X = L for L, G's columns of
    the failed node's symbols. Then X maps every received vector to the lost
    symbols, for every payload. A plan whose sends do not determine them, in
    which the failed node sends, in which a helper sends a symbol it does not
    store, or in which a combination does not weigh exactly the helper's
    alpha symbols, is a ParamError naming the node."""
    plan, alpha = con.repair_plan(failed), con.params["alpha"]
    if plan.get(failed):
        raise ParamError(f"the repair plan of {failed} reads {failed} itself")
    for h, sends in plan.items():
        stray = [i for i in sends if isinstance(i, int) and i not in con.layout.get(h, ())]
        if stray:
            raise ParamError(f"the repair plan of {failed} has {h} send symbol {stray[0]}, "
                             f"which {h} does not store")
        for send in sends:
            if not isinstance(send, int) and len(send[0]) != alpha:
                raise ParamError(f"the repair plan of {failed} has {h} send a combination "
                                 f"of {len(send[0])} symbols, but {h} stores {alpha}")
    senders = tuple(h for h, sends in plan.items() if sends)
    combos = [(h, send[0]) for h in senders for send in plan[h] if not isinstance(send, int)]
    mixers = tuple(dict.fromkeys(h for h, _ in combos))
    rows = [[0] * len(combos) for _ in range(len(mixers) * alpha)]
    for col, (h, coeffs) in enumerate(combos):
        for a, c in enumerate(coeffs):
            rows[mixers.index(h) * alpha + a][col] = c
    mix = LinearMap(gf, Matrix(len(rows), len(combos), rows))
    mix_in = tuple(senders.index(h) * alpha + a for h in mixers for a in range(alpha))
    wire, received, combo = {}, [], len(senders) * alpha
    for h, sends in plan.items():
        idxs, entries, firsts = [], [], []
        for send in sends:
            firsts.append(len(idxs))
            if isinstance(send, int):
                idxs.append(send)
                entries.append(senders.index(h) * alpha + con.layout[h].index(send))
            else:
                idxs += [None] * send[1]
                entries += [combo] * send[1]
                combo += 1
        wire[h] = (tuple(idxs), tuple(entries))
        if sends:
            received.append((h, len(idxs), tuple(firsts)))
    # the same sends on G's columns: the pool of the repair of the unit sources
    cols = _columns(con, gf)
    pool = [cols[i] for h in senders for i in con.layout[h]]
    pool += mix.stripes([pool[e] for e in mix_in]) if mixers else []
    vector = [pool[wire[h][1][f]] for h, _, firsts in received for f in firsts]
    # one elimination of [R | L]: X is L's part of the pivot rows, its free
    # unknowns zero, and L's part of every row below the rank must be zero
    lost = [cols[i] for i in con.layout[failed]]
    rows, pivots = _row_reduce(gf, _matrix(vector + lost, con.params["M"], gf).data,
                               len(vector))
    if any(any(row[len(vector):]) for row in rows[len(pivots):]):
        raise ParamError(f"the repair plan of {failed} does not determine its symbols")
    solve = [[0] * len(lost) for _ in vector]
    for row, c in zip(rows, pivots):
        solve[c] = list(row[len(vector):])
    return _Repair(senders, mix_in, mix, wire, tuple(received),
                   LinearMap(gf, Matrix(len(vector), len(lost), solve)))


def repair(p: Placement, failed: NodeId) -> tuple[RepairTranscript, Holding]:
    """Run the repair plan for `failed` on every instance: the transcript of
    what each of the n-1 helpers sent, and the regenerated holding."""
    con, s = _engine(p, [failed])
    rp = _plan(con, p.gf, failed)
    theta, w = con.params["theta"], p.gf.width
    pool = [x for stripes in _content(p, con, rp.senders, s) for x in stripes]
    pool += rp.mix.apply([pool[e] for e in rp.mix_in], s) if rp.mix_in else []
    contributions = {h: Holding(idxs, tuple([pool[e] for e in entries]), s, theta, w)
                     for h, (idxs, entries) in rp.wire.items()}
    transcript = RepairTranscript(failed, contributions, s * con.params["beta_i"],
                                  s * con.params["beta_c"],
                                  sum(len(v) for v in contributions.values()))
    return transcript, regenerate(p, transcript)


def regenerate(p: Placement, transcript: RepairTranscript) -> Holding:
    """Rebuild the failed node's holding from transcript contents alone."""
    con, s = _engine(p, [transcript.failed])
    rp, w = _plan(con, p.gf, transcript.failed), p.gf.width
    received = []  # per entry of the received vector: its stripe
    for helper, width, firsts in rp.received:
        syms = transcript.contributions.get(helper, [])
        if len(syms) != s * width:
            raise FormatError(f"{helper} sent {len(syms)} symbols, the repair plan "
                              f"has {s * width}")
        if isinstance(syms, Holding) and len(syms.idxs) == width and syms.fits(s, w):
            stripes = syms.stripes
        else:
            vals = [val for _, val in syms]
            if min(vals) < 0 or max(vals) >= p.gf.order:
                raise FormatError(f"{helper} sent a value outside GF(2^{p.gf.m})")
            stripes = to_stripes(vals, width, w)
        received += [stripes[f] for f in firsts]
    return Holding(con.layout[transcript.failed], tuple(rp.solve.apply(received, s)), s,
                   con.params["theta"], w)


def reconstruct(p: Placement, nodes: list[NodeId]) -> list[int]:
    """Decode the source from >= k distinct nodes, one word at a time and all
    s instances at once: a Reed-Solomon base by rs_decode, the others by
    elimination. The parity word is not decoded: its contacted symbols are
    checked against the sum of the decoded slices."""
    unique = list(dict.fromkeys(nodes))
    con, s = _engine(p, unique)
    if len(unique) < p.topology.k:
        raise InsufficientDataError(
            f"{len(unique)} distinct nodes contacted, need k={p.topology.k}")
    held: dict[int, list[bytes]] = {}  # symbol -> per copy, its stripe
    for node, stripes in zip(unique, _content(p, con, unique, s)):
        for i, stripe in zip(con.layout[node], stripes):
            held.setdefault(i, []).append(stripe)
    gen, msg = con.generator, []  # per source symbol, its stripe
    for idx in con.words:
        # every copy goes in: surplus ones are checked
        shares = [(c, x) for c, i in enumerate(idx) for x in held.get(i, ())]
        if con.rs:
            msg += rs_decode(con.rs, [(c + 1, x) for c, x in shares])
            continue
        system = Matrix(len(shares), gen.rows, [gen.column(c) for c, _ in shares])
        res = mat_solve(p.gf, system, [x for _, x in shares])
        if res.solution is None:
            raise InconsistentSharesError("contacted symbols are inconsistent")
        if res.underdetermined:
            raise InsufficientDataError("contacted symbols do not pin the source")
        msg += res.solution
    if con.parity:
        shares = [(c, x) for c, i in enumerate(con.parity) for x in held.get(i, ())]
        lin = _map(con, p.gf, tuple(c for c, _ in shares))
        if lin.apply(_summed(con, msg), s) != [x for _, x in shares]:
            raise InconsistentSharesError("contacted symbols disagree with the decoded source")
    return list(from_stripes(msg, p.gf.width))


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
