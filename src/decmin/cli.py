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

from . import applications, brute, canonical, core, engine, matroid, orientation


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
        pts = brute.points(B)
    except core.CeilingExceeded as exc:
        _skip_verify(str(exc))
        return
    _, best = brute.decmin_rows(pts)
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


def _verify_orientation(G, orient, spec) -> None:
    if G.m > 14:
        _skip_verify(f"{G.m} edges, the 2^m scan stops at 14")
        return
    lo, hi = orientation._resolve_bounds(G, spec.lower, spec.upper)
    heads, deg = brute.orientations(G, lo, hi, k=spec.connectivity)
    if spec.t_set is not None:
        t_list = sorted(spec.t_set)
        tsum = deg[:, t_list].sum(axis=1)
        tmin = min(tsum)
        heads, deg = heads[tsum == tmin], deg[tsum == tmin]
        if orient.indeg[t_list].sum() != tmin:
            _fail_verify("the 2^m scan (T in-degree not minimum)")
    sel, best = brute.decmin_rows(deg)
    if core.sorted_dec(orient.indeg) != best:
        _fail_verify("the 2^m scan")
    if spec.objective == "cheapest-decmin" and G.cost is not None:
        want = min(orientation.orientation_cost(orientation.Orientation(G, h), G.cost)
                   for h in heads[sel])
        if orientation.orientation_cost(orient, G.cost) != want:
            _fail_verify("the 2^m scan (cost not minimum)")


def _verify_capacitated(G, cap) -> None:
    expanded = G.expand()
    if expanded.m > 14:
        _skip_verify(f"{expanded.m} edge copies, the 2^m scan stops at 14")
        return
    _, best = brute.decmin_rows(brute.orientations(expanded)[1])
    if core.sorted_dec(cap.indeg) != best:
        _fail_verify("the expanded graph")


def _verify_semimatch(P, res) -> None:
    caps = P.edge_caps if P.edge_caps is not None else np.ones(P.m, np.int64)
    if float(np.prod(caps + 1.0)) > 2**14:
        _skip_verify("more than 2^14 subgraphs to scan")
        return
    _, degs = brute.subgraphs(P)
    if len(degs) and core.sorted_dec(res.left_degrees) != brute.decmin_rows(degs)[1]:
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
    try:
        sums = brute.basis_sums(mats, limit=2**14)
    except core.CeilingExceeded:
        _skip_verify("more than 2^14 basis tuples to scan")
        return
    if lower is not None:
        sums = sums[np.all(sums >= lower, axis=1)]
    if upper is not None:
        sums = sums[np.all(sums <= upper, axis=1)]
    if len(sums) and core.sorted_dec(total) != brute.decmin_rows(sums)[1]:
        _fail_verify("the basis-tuple scan")


def _verify_megiddo(P, res) -> None:
    D = P.digraph
    if float(np.prod(D.cap + 1.0)) > 2**14:
        _skip_verify("more than 2^14 arc flow vectors to scan")
        return
    _, psi = brute.flows(D, P.sources, P.sinks)
    out = -psi[:, sorted(P.sources)]
    if P.amount is not None:
        out = out[out.sum(axis=1) == P.amount]
    # unset, the amount is the largest any flow sends
    best = max(((int(x.sum()), core.sorted_inc(x)) for x in out), default=None)
    if best is not None and (int(res.outflow.sum()), core.sorted_inc(res.outflow)) != best:
        _fail_verify("the exhaustive flow scan")


def _verify_rootvec(D, k, m) -> None:
    if (k + 1) ** D.n > 2**14:
        _skip_verify("more than 2^14 root vectors to scan")
        return
    vecs = brute.root_vectors(D.n, D.arcs, k)
    if len(vecs) and core.sorted_dec(m) != brute.decmin_rows(vecs)[1]:
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
        B = core.BaseHandle(brute.random_supermodular_table(rng, n))
        _, best = brute.decmin_rows(brute.points(B))
        m1 = engine.strongly_poly_decmin(B)
        m2 = engine.basic_decmin(B)
        ok = core.sorted_dec(m1) == best == core.sorted_dec(m2)
        print(f"case {case}: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


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
