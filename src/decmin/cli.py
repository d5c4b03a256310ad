"""Command-line front end: every solver with text/JSON I/O, certificates,
and brute-force verification switches.

Exit codes: 0 success, 2 infeasible (output carries a witness), 1 usage or
parse errors (and verification mismatches, which are loud failures).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import applications, canonical, core, engine, matroid, orientation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _vec(text: str) -> np.ndarray:
    return np.array([int(x) for x in text.replace(",", " ").split()], dtype=np.int64)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")


def _witness_list(witness):
    return sorted(int(v) for v in witness) if witness else []


def _load_handle(path: str) -> core.BaseHandle:
    with open(path) as fh:
        oracle = core.load_table_json(fh.read())
    return core.BaseHandle(oracle)


def _cmd_decmin(args) -> int:
    B = _load_handle(args.table)
    m = engine.strongly_poly_decmin(B)
    D = canonical.canonical_from_decmin(B, m, check=False)
    if args.verify:
        _check_against_brute(B, m)
    _emit({"m": m.tolist(), "betas": D.betas}, args.format)
    return 0


def _check_against_brute(B, m) -> None:
    try:
        pts = core.enumerate_integral_points(B)
    except core.CeilingExceeded as exc:
        _skip_verify(str(exc))
        return
    _, best = core.brute_decmin_set(pts.points)
    if core.sorted_dec(m) != best:
        print("verification mismatch against brute force", file=sys.stderr)
        sys.exit(1)


def _cmd_canonical(args) -> int:
    B = _load_handle(args.table)
    m = _vec(args.m) if args.m else engine.strongly_poly_decmin(B)
    D = canonical.canonical_from_decmin(B, m)
    print(D.to_json())
    return 0


def _cmd_certify(args) -> int:
    B = _load_handle(args.table)
    m = _vec(args.m)
    Dm = engine.strongly_poly_decmin(B)
    D = canonical.canonical_from_decmin(B, Dm, check=False)
    pi = _vec(args.pi) if args.pi else D.pi_star
    report = canonical.duality_gap(B, m, pi)
    _emit(
        {
            "W": report.square_sum,
            "gap": report.gap,
            "pi_star": D.pi_star.tolist(),
            "O1": report.o1,
            "O2": report.o2,
            "dual_optimal": canonical.verify_dual_optimal(D, B, pi),
        },
        args.format,
    )
    return 0


def _orientation_payload(orient: orientation.Orientation) -> dict:
    return {
        "arcs": [[int(a) + 1, int(b) + 1] for a, b in orient.arcs()],
        "indeg": orient.indeg.tolist(),
    }


def _cmd_orient(args) -> int:
    with open(args.graph) as fh:
        G, lower, upper = orientation.parse_graph(fh.read())
    if args.capacitated and (
        args.k or args.min_t or args.cheapest or lower is not None or upper is not None
    ):
        raise ValueError("--capacitated takes no --k, --minT, --cheapest or b lines")
    if args.min_t and args.cheapest:
        raise ValueError("--minT and --cheapest cannot be combined")
    spec = orientation.OrientationSpec(
        lower,
        upper,
        t_set=frozenset((_vec(args.min_t) - 1).tolist()) if args.min_t else None,
        connectivity=args.k,
        objective="min-indeg-T" if args.min_t
        else "cheapest-decmin" if args.cheapest
        else "decmin",
    )
    if args.capacitated:
        cap = orientation.capacitated_decmin_orientation(G)
        payload = {
            "toward_head": cap.toward_head.tolist(),
            "indeg": cap.indeg.tolist(),
        }
        if args.verify:
            _verify_capacitated(G, cap)
        _emit(payload, args.format)
        return 0
    orient = orientation.solve_orientation_spec(G, spec)
    if args.verify:
        _verify_orientation(G, orient, spec)
    payload = _orientation_payload(orient)
    if G.cost is not None:
        payload["cost"] = orientation.orientation_cost(orient, G.cost)
    _emit(payload, args.format)
    return 0


def _fail_verify(what: str) -> None:
    print(f"verification mismatch against {what}", file=sys.stderr)
    sys.exit(1)


def _skip_verify(reason: str) -> None:
    print(f"verification skipped: {reason}", file=sys.stderr)


def _scan_orientations(G, lo, hi, k=0):
    """(in-degree vector, orientation) for every feasible orientation."""
    for code in range(1 << G.m):
        heads = np.array(
            [v if code >> j & 1 else u for j, (u, v) in enumerate(G.edges)],
            dtype=np.int64,
        )
        orient = orientation.Orientation(G, heads)
        deg = orient.indeg
        if np.any(deg < lo) or np.any(deg > hi):
            continue
        if orientation._is_k_connected(orient, k):
            yield deg, orient


def _verify_orientation(G, orient, spec) -> None:
    if G.m > 14:
        _skip_verify(f"{G.m} edges, the 2^m scan stops at 14")
        return
    lo, hi = orientation._resolve_bounds(G, spec.lower, spec.upper)
    rows = list(_scan_orientations(G, lo, hi, k=spec.connectivity))
    if spec.t_set is not None:
        t_list = sorted(spec.t_set)
        tmin = min(int(deg[t_list].sum()) for deg, _ in rows)
        rows = [(deg, o) for deg, o in rows if int(deg[t_list].sum()) == tmin]
        if int(orient.indeg[t_list].sum()) != tmin:
            _fail_verify("the 2^m scan (T in-degree not minimum)")
    best = min(core.sorted_dec(deg) for deg, _ in rows)
    if core.sorted_dec(orient.indeg) != best:
        _fail_verify("the 2^m scan")
    if spec.objective == "cheapest-decmin" and G.cost is not None:
        want = min(
            orientation.orientation_cost(o, G.cost)
            for deg, o in rows
            if core.sorted_dec(deg) == best
        )
        if orientation.orientation_cost(orient, G.cost) != want:
            _fail_verify("the 2^m scan (cost not minimum)")


def _verify_capacitated(G, cap) -> None:
    expanded = G.expand()
    if expanded.m > 14:
        _skip_verify(f"{expanded.m} edge copies, the 2^m scan stops at 14")
        return
    got = core.sorted_dec(cap.indeg)
    want = core.sorted_dec(orientation.decmin_orientation(expanded).indeg)
    if got != want:
        _fail_verify("the expanded graph")


def _verify_semimatch(P, res) -> None:
    import itertools

    caps = P.edge_caps if P.edge_caps is not None else np.ones(P.m, np.int64)
    if float(np.prod(caps + 1.0)) > 2**14:
        _skip_verify("more than 2^14 subgraphs to scan")
        return
    best = None
    for z in itertools.product(*[range(int(c) + 1) for c in caps]):
        degS = np.zeros(P.n_left, dtype=np.int64)
        degT = np.zeros(P.n_right, dtype=np.int64)
        for (s, t), zz in zip(P.edges, z):
            degS[s] += zz
            degT[t] += zz
        if P.t_degrees is not None:
            if not (degT == P.t_degrees).all():
                continue
        elif P.lower_right is None and P.upper_right is None:
            if not (degT == 1).all():
                continue
        if P.lower_right is not None and np.any(degT < np.asarray(P.lower_right)):
            continue
        if P.upper_right is not None and np.any(degT > np.asarray(P.upper_right)):
            continue
        if P.lower_left is not None and np.any(degS < np.asarray(P.lower_left)):
            continue
        if P.upper_left is not None and np.any(degS > np.asarray(P.upper_left)):
            continue
        if P.gamma is not None and sum(z) != P.gamma:
            continue
        sig = core.sorted_dec(degS)
        best = sig if best is None or sig < best else best
    if best is not None and core.sorted_dec(res.left_degrees) != best:
        _fail_verify("the exhaustive subgraph scan")


def _cmd_semimatch(args) -> int:
    with open(args.instance) as fh:
        P = applications.load_semimatching_json(fh.read())
    res = applications.decmin_semimatching(P)
    if args.verify:
        _verify_semimatch(P, res)
    payload = {
        "multiplicity": res.multiplicity.tolist(),
        "left_degrees": res.left_degrees.tolist(),
        "right_degrees": res.right_degrees.tolist(),
    }
    if res.cost is not None:
        payload["cost"] = res.cost
    _emit(payload, args.format)
    return 0


def _cmd_matroid_sum(args) -> int:
    mats = []
    for path in args.matroid:
        with open(path) as fh:
            mats.append(matroid.load_matroid_json(fh.read()))
    lower = _vec(args.lower) if args.lower else None
    upper = _vec(args.upper) if args.upper else None
    bases, total = matroid.decmin_basis_sum(mats, lower, upper)
    if args.verify:
        _verify_matroid_sum(mats, lower, upper, total)
    _emit(
        {
            "sum": total.tolist(),
            "bases": [sorted(int(v) for v in b) for b in bases],
        },
        args.format,
    )
    return 0


def _verify_matroid_sum(mats, lower, upper, total) -> None:
    import itertools

    n = mats[0].n
    families = []
    count = 1
    for M in mats:
        fam = [
            frozenset(c)
            for c in itertools.combinations(range(n), M.rank())
            if M.independent(c)
        ]
        families.append(fam)
        count *= len(fam)
        if count > 2**14:
            _skip_verify("more than 2^14 basis tuples to scan")
            return
    best = None
    for combo in itertools.product(*families):
        vec = np.zeros(n, dtype=np.int64)
        for b in combo:
            for v in b:
                vec[v] += 1
        if lower is not None and np.any(vec < lower):
            continue
        if upper is not None and np.any(vec > upper):
            continue
        sig = core.sorted_dec(vec)
        best = sig if best is None or sig < best else best
    if best is not None and core.sorted_dec(total) != best:
        _fail_verify("the basis-tuple scan")


def _verify_megiddo(P, res) -> None:
    import itertools

    from .netflow import net_in_flow

    D = P.digraph
    if float(np.prod(D.cap + 1.0)) > 2**14:
        _skip_verify("more than 2^14 arc flow vectors to scan")
        return
    srcs = sorted(P.sources)
    best = None
    for z in itertools.product(*[range(int(c) + 1) for c in D.cap]):
        psi = net_in_flow(D, np.array(z, np.int64))
        if any(psi[v] > 0 for v in P.sources):
            continue
        if any(psi[v] < 0 for v in P.sinks):
            continue
        if any(
            psi[v] != 0
            for v in range(D.n)
            if v not in P.sources and v not in P.sinks
        ):
            continue
        total = -int(psi[srcs].sum())
        if P.amount is not None and total != P.amount:
            continue
        # unset, the amount is the largest any flow sends
        key = (total, core.sorted_inc(-psi[srcs]))
        best = key if best is None or key > best else best
    if best is not None and (int(res.outflow.sum()), core.sorted_inc(res.outflow)) != best:
        _fail_verify("the exhaustive flow scan")


def _verify_rootvec(D, k, m) -> None:
    import itertools

    if (k + 1) ** D.n > 2**14:
        _skip_verify("more than 2^14 root vectors to scan")
        return
    best = None
    for vec in itertools.product(range(k + 1), repeat=D.n):
        if sum(vec) != k:
            continue
        ok = True
        for mask in range(1, 1 << D.n):
            X = [v for v in range(D.n) if mask >> v & 1]
            indeg = sum(1 for u, v in D.arcs if v in X and u not in X)
            if sum(vec[v] for v in X) < k - indeg:
                ok = False
                break
        if ok:
            sig = core.sorted_dec(vec)
            best = sig if best is None or sig < best else best
    if best is not None and core.sorted_dec(m) != best:
        _fail_verify("the root-vector scan")


def _cmd_megiddo(args) -> int:
    with open(args.instance) as fh:
        P = applications.parse_megiddo(fh.read())
    res = applications.megiddo_discrete(P)
    if args.verify:
        _verify_megiddo(P, res)
    _emit(
        {
            "outflow": res.outflow.tolist(),
            "sources": [s + 1 for s in res.sources],
            "flow": res.flow.tolist(),
        },
        args.format,
    )
    return 0


def _cmd_rootvec(args) -> int:
    with open(args.digraph) as fh:
        D = applications.parse_digraph(fh.read())
    m = applications.decmin_root_vector(D, args.k)
    if args.verify:
        _verify_rootvec(D, args.k, m)
    _emit({"m": m.tolist()}, args.format)
    return 0


def _cmd_verify(args) -> int:
    """Random cross-checks of the solvers against the brute-force oracle."""
    rng = np.random.default_rng(args.seed)
    failures = 0
    for case in range(args.count):
        n = int(rng.integers(2, 5))
        oracle = _random_supermodular(rng, n)
        B = core.BaseHandle(oracle)
        pts = core.enumerate_integral_points(B)
        _, best = core.brute_decmin_set(pts.points)
        m1 = engine.strongly_poly_decmin(B)
        m2 = engine.basic_decmin(B)
        ok = core.sorted_dec(m1) == best == core.sorted_dec(m2)
        print(f"case {case}: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _random_supermodular(rng, n: int) -> core.TableOracle:
    while True:
        weights = rng.integers(-2, 3, size=n)
        vals = [0.0] * (1 << n)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=size, replace=False)
            terms.append((core.mask_of(int(v) for v in members), int(rng.integers(1, 3))))
        for mask in core.iter_masks(n):
            total = sum(int(weights[v]) for v in range(n) if mask >> v & 1)
            total += sum(a for tm, a in terms if mask & tm == tm)
            vals[mask] = total
        vals[0] = 0
        if all(-4 <= v <= 4 for v in vals):
            return core.TableOracle([int(v) for v in vals])


def build_parser() -> _Parser:
    parser = _Parser(prog="decmin", description=__doc__)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decmin", help="dec-min element of a table oracle")
    p.add_argument("--table", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_decmin)

    p = sub.add_parser("canonical", help="canonical decomposition")
    p.add_argument("--table", required=True)
    p.add_argument("--m", help="dec-min element to read the chain off")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("certify", help="square-sum duality certificate")
    p.add_argument("--table", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--pi", help="dual vector (defaults to pi*)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("orient", help="dec-min orientations")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=0, help="edge-connectivity")
    p.add_argument("--minT", dest="min_t", help="minimize in-degree of these nodes")
    p.add_argument("--cheapest", action="store_true")
    p.add_argument("--capacitated", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("semimatch", help="dec-min semi-matchings")
    p.add_argument("--instance", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_semimatch)

    p = sub.add_parser("matroid-sum", help="dec-min sum of matroid bases")
    p.add_argument("--matroid", action="append", required=True)
    p.add_argument("--lower")
    p.add_argument("--upper")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_matroid_sum)

    p = sub.add_parser("megiddo", help="discrete fair source flow")
    p.add_argument("--instance", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_megiddo)

    p = sub.add_parser("rootvec", help="dec-min arborescence root-vector")
    p.add_argument("--digraph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_rootvec)

    p = sub.add_parser("verify", help="randomized brute-force cross-checks")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except core.EmptyBaseError as exc:
        _emit({"infeasible": str(exc), "witness": _witness_list(exc.witness)}, args.format)
        return 2
    except (OSError, ValueError, json.JSONDecodeError, core.CeilingExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
