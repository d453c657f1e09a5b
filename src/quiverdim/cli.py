"""Command-line interface.

Commands read a QV1 file and print human-readable text, or a JSON report
with ``--json``.  Exit codes: 0 success / affirmative, 1 negative decision
(not achievable, not quasi-hereditary, a failed check), 2 input error.

``main`` alone loads the file, turns input errors into exit code 2, adds
``command`` and ``input_hash`` to the JSON report and prints.  Every input
error, the basis and oracle caps included, is a ValueError or an OSError.
Each ``cmd_*`` takes ``(args, quiver, relations)`` and returns ``(exit
code, payload, text)``: ``payload`` is the rest of the JSON report, or None
when the command has only text (``render``, an infinite ``resolve``), and
``text`` is a zero-argument callable that prints the text output; ``main``
calls it only without ``--json``, so a JSON run never formats text.

The mod-p oracle, and with it numpy, is imported only by ``verify`` and
``oracle-check``; the other commands never load it.  Both resolve each
distinct module once, however many of the S, Delta and Gamma labels name
it: one chain resolution, one matrix resolution per prime and, in
``verify``, one Euler check.

``--max-deg`` must lie in 0..``MAX_DEG``, checked before admissibility: a
truncated resolution computes and prints every degree up to it.  Betti
numbers can grow exponentially with the degree (10^d over two vertices with
10 arrows each way), so ``resolve`` refuses, before it prints anything, a
resolution with a Betti number of more digits than Python converts to text
(``sys.get_int_max_str_digits()``, 4,300 by default).  It reads that limit
at each call and never changes it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from . import construct, homology, qh, qvfile, render
from .algebra import Algebra, ModuleSpec, RelationSet
from .homology import ExtNat, InfiniteResolutionError
from .quiver import Quiver

MAX_DEG = 10_000


def _check_max_deg(max_deg: Optional[int]) -> None:
    if max_deg is not None and max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    if max_deg is not None and max_deg > MAX_DEG:
        raise ValueError(f"max_deg must be <= {MAX_DEG}")


def _ext(value: ExtNat):
    return "inf" if value == math.inf else int(value)


SHORTHANDS = {
    "S": ModuleSpec.simple,
    "P": ModuleSpec.projective,
    "Delta": ModuleSpec.delta,
    "Gamma": ModuleSpec.gamma,
}


def integer(text: str) -> int:  # int() under QV1's rule: ASCII digits, after an optional "-"
    if not qvfile._DIGITS.match(text.removeprefix("-")):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_module_spec(q: Quiver, text: str) -> ModuleSpec:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind in SHORTHANDS and len(parts) == 2:
            return SHORTHANDS[kind](q, integer(parts[1]))
        if kind == "M" and len(parts) == 3:
            ids = [s for s in parts[2].split(",") if s]
            return ModuleSpec.of(q, integer(parts[1]), ids)
    except ValueError as exc:
        raise ValueError(f"bad module spec {text!r}: {exc}") from None
    raise ValueError(
        f"bad module spec {text!r}; use S:i, P:i, Delta:i, Gamma:i or M:i:a,b"
    )


def _admissible(quiver: Quiver, relations: RelationSet) -> Algebra:
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    return algebra


def cmd_gldim(args, quiver, relations):
    pdims = homology.pdims_of_simples(_admissible(quiver, relations))
    value = max(pdims.values(), default=0)

    def text():
        print(f"gldim: {_ext(value)}")
        for v in sorted(pdims):
            print(f"pdim S({v}) = {_ext(pdims[v])}")

    return 0, {"gldim": _ext(value), "pdims": {str(v): _ext(d) for v, d in pdims.items()}}, text


@functools.cache
def _least_unprintable(limit: int) -> int:  # the least int of more than ``limit`` digits
    return 10**limit


def cmd_resolve(args, quiver, relations):
    _check_max_deg(args.max_deg)
    algebra = _admissible(quiver, relations)
    spec = parse_module_spec(quiver, args.module)
    try:
        res = homology.resolve(algebra, spec, max_deg=args.max_deg)
    except InfiniteResolutionError as exc:
        message = f"infinite resolution: {exc} (rerun with --max-deg)"
        return 1, None, lambda: print(message, file=sys.stderr)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        cap = _least_unprintable(limit)
        for d, layer in enumerate(res.betti):
            if max(layer.values(), default=0) >= cap:
                raise ValueError(
                    f"degree {d} has a Betti number of more than {limit} digits, "
                    f"past Python's limit for printing an integer; rerun with --max-deg below {d}"
                )
    pdim = res.pdim() if res.complete else None

    def text():
        print(f"module: {spec.describe()}")
        for d, layer in enumerate(res.betti):
            terms = " + ".join(
                f"P({v})" + (f"^{mult}" if mult > 1 else "")
                for v, mult in sorted(layer.items())
            )
            print(f"degree {d}: {terms or '0'}")
        print(f"complete: {'yes' if res.complete else 'no (truncated)'}")
        if pdim is not None:
            print(f"pdim: {pdim}")

    payload = {
        "module": args.module,
        "betti": [{str(v): mult for v, mult in layer.items()} for layer in res.betti],
        "complete": res.complete,
        "pdim": pdim,
    }
    return 0, payload, text


def cmd_construct(args, quiver, relations):
    result = construct.achieve_gldim(quiver, args.target)
    if not result.ok:

        def failed():
            print(f"target {args.target}: not achieved")
            for note in result.attempts:
                print(f"  - {note}")

        payload = {"target": args.target, "achieved": False, "diagnostics": list(result.attempts)}
        return 1, payload, failed
    cert = result.certificate
    emb = cert.embedding
    relabeling = {old: cert.relabeling.apply(old) for old in range(1, cert.relabeling.n + 1)}

    def text():
        print(f"certificate: kind={cert.kind} target={cert.target} m={cert.m}")
        if emb is not None:
            line = f"embedding: vertices {' '.join(map(str, emb.vertices))}"
            if emb.arrows:
                line += f" arrows {' '.join(emb.arrows)}"
            if emb.cycle_arrow:
                line += f" cycle {emb.cycle_arrow} (returns to index {emb.return_index})"
            print(line)
        print("relabeling: " + " ".join(f"{old}->{new}" for old, new in relabeling.items()))
        print(f"ideal ({len(cert.ideal)} relations):")
        for g in cert.ideal:
            print(f"  rel {' '.join(g.word)}  # composition order: {''.join(reversed(g.word))}")
        print(f"verified gldim: {_ext(cert.verified_gldim)}")

    payload = {
        "target": args.target,
        "achieved": True,
        "gldim": _ext(cert.verified_gldim),
        "pdims": {str(v): _ext(d) for v, d in cert.pdims.items()},
        "certificate": {
            "kind": cert.kind,
            "m": cert.m,
            "embedding": None if emb is None else emb._asdict(),
            "relabeling": {str(old): new for old, new in relabeling.items()},
            "generators": [list(g.word) for g in cert.ideal],
        },
    }
    return 0, payload, text


def cmd_corollary(args, quiver, relations):
    ok, witness = construct.gldim2_achievable(quiver)
    payload = {"achievable": ok}
    if ok:
        path, sigma = witness
        payload["witness_path"] = list(path.word)
        payload["relabeling"] = {str(old): sigma.apply(old) for old in range(1, sigma.n + 1)}

    def text():
        if ok:
            print(f"yes: loopless with composable pair {'.'.join(path.word)}")
        else:
            print("no: needs a loopless quiver with a composable arrow pair")

    return (0 if ok else 1), payload, text


def cmd_check_sqh(args, quiver, relations):
    report = qh.check_strongly_qh(_admissible(quiver, relations))

    def text():
        for v in sorted(report.vertices):
            r = report.vertices[v]
            print(
                f"vertex {v}: R-projective {'ok' if r.r_projective_ok else 'FAIL'}, "
                f"Delta factors {'ok' if r.delta_factors_ok else 'FAIL'}, "
                f"Hom-delta {'ok' if r.hom_delta_ok else 'FAIL'}"
            )
        print(f"strongly quasi-hereditary: {'yes' if report.overall else 'no'}")

    vertices = {
        str(v): {
            "r_projective_ok": r.r_projective_ok,
            "delta_factors_ok": r.delta_factors_ok,
            "hom_delta_ok": r.hom_delta_ok,
        }
        for v, r in report.vertices.items()
    }
    payload = {"sqh": {"overall": report.overall, "vertices": vertices}}
    return (0 if report.overall else 1), payload, text


def _engine_comparisons(algebra: Algebra, max_deg: int, fields: list[Optional[int]]):
    """For each prime p of ``fields`` (``oracle.DEFAULT_PRIME`` for None)
    and each S, Delta and Gamma module, named like ``Delta_2``: p, the
    name, the spec, its chain resolution and its matrix resolution over
    GF(p), and whether the two agree.  ``max_deg`` and the primes are
    checked at the call; the modules are resolved lazily, as iterated.
    Labels often name one module twice (Gamma_i = S_i on a line), so each
    distinct spec is resolved once by the chain engine and once per prime
    by the oracle, and a repeat gets the same objects back."""
    from . import oracle

    q = algebra.quiver
    _check_max_deg(max_deg)
    primes = [oracle.DEFAULT_PRIME if p is None else p for p in fields]
    for p in primes:
        oracle._require_prime(p)
    chain_of = functools.cache(lambda spec: homology.resolve(algebra, spec, max_deg=max_deg))
    matrix_of = functools.cache(
        lambda spec, p: oracle.minimal_resolution(algebra, spec, max_deg, p=p)
    )

    def compare(p: int, label: str, i: int):
        spec = SHORTHANDS[label](q, i)
        chain, matrix = chain_of(spec), matrix_of(spec, p)
        return p, f"{label}_{i}", spec, chain, matrix, chain == matrix

    labels = ("S", "Delta", "Gamma")
    return (compare(p, label, i) for p in primes for label in labels for i in q.vertices())


def _checks_report(checks: list[dict], passed: str, failed: str):
    ok = all(c["ok"] for c in checks)

    def text():
        for c in checks:
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'}{detail}")
        print(passed if ok else failed)

    return (0 if ok else 1), {"checks": checks, "ok": ok}, text


def cmd_verify(args, quiver, relations):
    algebra = Algebra(quiver, relations)
    # Checks --max-deg and --field before the admissibility check.
    comparisons = _engine_comparisons(algebra, args.max_deg, [args.field])
    adm = algebra.admissibility
    detail = f"all paths of length {adm.bound} vanish" if adm.ok else adm.reason
    ok = adm.ok and adm.bound == 1 + max((p.length for p in algebra.basis.paths), default=0)
    checks = [{"name": "admissible", "ok": ok, "detail": detail}]
    euler: dict[ModuleSpec, bool] = {}  # one check per distinct spec
    for _, name, spec, chain, matrix, same in comparisons if adm.ok else ():
        detail = "chain and matrix engines agree" if same else f"chain={chain} matrix={matrix}"
        checks.append({"name": f"betti_match_{name}", "ok": same, "detail": detail})
        if chain.complete:
            if spec not in euler:
                euler[spec] = homology.check_euler_identity(algebra, spec, chain)
            detail = "alternating sum matches composition vector"
            checks.append({"name": f"euler_{name}", "ok": euler[spec], "detail": detail})
    return _checks_report(checks, "all checks passed", "some checks FAILED")


def cmd_oracle_check(args, quiver, relations):
    from . import oracle

    algebra = Algebra(quiver, relations)
    fields = [2, oracle.DEFAULT_PRIME] if args.field is None else [args.field]
    # Checks --max-deg and --field before the admissibility check.
    comparisons = _engine_comparisons(algebra, args.max_deg, fields)
    algebra.require_admissible()
    checks = [
        {"name": f"p{p}_{name}", "ok": same, "detail": ""}
        for p, name, _, _, _, same in comparisons
    ]
    return _checks_report(checks, "engines agree", "engines DISAGREE")


def cmd_render(args, quiver, relations):
    algebra = _admissible(quiver, relations)
    dot = render.module_quiver_dot(algebra, parse_module_spec(quiver, args.module))
    return 0, None, lambda: sys.stdout.write(dot)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` leaves it unchanged,
    so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="quiverdim",
        description="Monomial bound quiver algebras: exact global dimension, "
        "constructions with certificates, strongly quasi-hereditary checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="QV1 input file")
        p.set_defaults(fn=fn)
        return p

    module_help = "S:i | P:i | Delta:i | Gamma:i | M:i:a,b"
    add("gldim", cmd_gldim, help="global dimension and per-simple pdims")
    p = add("resolve", cmd_resolve, help="minimal projective resolution (Betti data)")
    p.add_argument("--module", required=True, help=module_help)
    p.add_argument("--max-deg", type=integer, default=None)
    p = add("construct", cmd_construct, help="ideal achieving a target global dimension")
    p.add_argument("--target", type=integer, required=True)
    add("corollary", cmd_corollary, help="is global dimension 2 achievable?")
    add("check-sqh", cmd_check_sqh, help="strongly quasi-hereditary report")
    for name, fn, summary in (
        ("verify", cmd_verify, "cross-check both engines on this algebra"),
        ("oracle-check", cmd_oracle_check, "Betti equality across engines and fields"),
    ):
        p = add(name, fn, help=summary)
        p.add_argument("--field", type=integer, default=None)
        p.add_argument("--max-deg", type=integer, default=8)
    p = add("render", cmd_render, help="DOT diagram of a module quiver")
    p.add_argument("--module", required=True, help=module_help)
    for name, p in sub.choices.items():
        if name != "render":  # DOT is the only output of render
            p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        quiver, relations, digest = qvfile.load(args.file)
        code, payload, text = args.fn(args, quiver, relations)
        if payload is not None and args.json:
            report = {"command": args.command, "input_hash": digest, **payload}
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            text()
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
