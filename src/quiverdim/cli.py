"""Command-line interface.

Commands read a QV1 file and print human-readable text, or a JSON report
with ``--json``.  Exit codes: 0 success / affirmative, 1 negative decision
(not achievable, not quasi-hereditary, a failed check), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import construct, homology, oracle, qh, qvfile, render
from .algebra import Algebra, BasisCapExceeded, ModuleSpec, NotAdmissibleError
from .homology import ExtNat, InfiniteResolutionError
from .quiver import Quiver


def _ext(value: ExtNat):
    return "inf" if value == math.inf else int(value)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def parse_module_spec(q: Quiver, text: str) -> ModuleSpec:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "S" and len(parts) == 2:
            return ModuleSpec.simple(q, int(parts[1]))
        if kind == "P" and len(parts) == 2:
            return ModuleSpec.projective(q, int(parts[1]))
        if kind == "Delta" and len(parts) == 2:
            return ModuleSpec.delta(q, int(parts[1]))
        if kind == "Gamma" and len(parts) in (2, 3):
            i = int(parts[1])
            if len(parts) == 3:
                m = int(parts[2])
                if not (1 <= i < m <= q.n):
                    raise ValueError(f"Gamma:{i}:{m} needs 1 <= i < m <= n")
            return ModuleSpec.gamma(q, i)
        if kind == "M" and len(parts) == 3:
            ids = [s for s in parts[2].split(",") if s]
            return ModuleSpec.of(q, int(parts[1]), ids)
    except ValueError as exc:
        raise ValueError(f"bad module spec {text!r}: {exc}") from None
    raise ValueError(
        f"bad module spec {text!r}; use S:i, P:i, Delta:i, Gamma:i[:m] or M:i:a,b"
    )


def _load(path: str):
    quiver, relations, digest = qvfile.load(path)
    return quiver, relations, digest


def cmd_gldim(args) -> int:
    quiver, relations, digest = _load(args.file)
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    pdims = homology.pdims_of_simples(algebra)
    value = max(pdims.values(), default=0)
    if args.json:
        _emit_json(
            {
                "command": "gldim",
                "input_hash": digest,
                "gldim": _ext(value),
                "pdims": {str(v): _ext(d) for v, d in pdims.items()},
            }
        )
    else:
        print(f"gldim: {_ext(value)}")
        for v in sorted(pdims):
            print(f"pdim S({v}) = {_ext(pdims[v])}")
    return 0


def cmd_resolve(args) -> int:
    quiver, relations, digest = _load(args.file)
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    spec = parse_module_spec(quiver, args.module)
    try:
        res = homology.resolve(algebra, spec, max_deg=args.max_deg)
    except InfiniteResolutionError as exc:
        print(f"infinite resolution: {exc} (rerun with --max-deg)", file=sys.stderr)
        return 1
    pdim_value: Optional[ExtNat] = len(res.betti) - 1 if res.complete else None
    if args.json:
        _emit_json(
            {
                "command": "resolve",
                "input_hash": digest,
                "module": args.module,
                "betti": [{str(v): mult for v, mult in layer.items()} for layer in res.betti],
                "complete": res.complete,
                "pdim": _ext(pdim_value) if pdim_value is not None else None,
            }
        )
    else:
        print(f"module: {spec.describe()}")
        for d, layer in enumerate(res.betti):
            terms = " + ".join(
                f"P({v})" + (f"^{mult}" if mult > 1 else "")
                for v, mult in sorted(layer.items())
            )
            print(f"degree {d}: {terms or '0'}")
        print(f"complete: {'yes' if res.complete else 'no (truncated)'}")
        if pdim_value is not None:
            print(f"pdim: {pdim_value}")
    return 0


def _embedding_json(emb) -> Optional[dict]:
    if emb is None:
        return None
    return {
        "vertices": list(emb.vertices),
        "arrows": list(emb.arrows),
        "cycle_arrow": emb.cycle_arrow,
        "return_index": emb.return_index,
    }


def cmd_construct(args) -> int:
    quiver, _, digest = _load(args.file)
    result = construct.achieve_gldim(quiver, args.target)
    if not result.ok:
        if args.json:
            _emit_json(
                {
                    "command": "construct",
                    "input_hash": digest,
                    "target": args.target,
                    "achieved": False,
                    "diagnostics": list(result.attempts),
                }
            )
        else:
            print(f"target {args.target}: not achieved")
            for note in result.attempts:
                print(f"  - {note}")
        return 1
    cert = result.certificate
    if args.json:
        _emit_json(
            {
                "command": "construct",
                "input_hash": digest,
                "target": args.target,
                "achieved": True,
                "gldim": _ext(cert.verified_gldim),
                "pdims": {str(v): _ext(d) for v, d in cert.pdims.items()},
                "certificate": {
                    "kind": cert.kind,
                    "m": cert.m,
                    "embedding": _embedding_json(cert.embedding),
                    "relabeling": {
                        str(old): cert.relabeling.apply(old)
                        for old in range(1, cert.relabeling.n + 1)
                    },
                    "generators": [list(g.word) for g in cert.ideal],
                },
            }
        )
    else:
        print(f"certificate: kind={cert.kind} target={cert.target} m={cert.m}")
        if cert.embedding is not None:
            emb = cert.embedding
            line = f"embedding: vertices {' '.join(map(str, emb.vertices))}"
            if emb.arrows:
                line += f" arrows {' '.join(emb.arrows)}"
            if emb.cycle_arrow:
                line += f" cycle {emb.cycle_arrow} (returns to index {emb.return_index})"
            print(line)
        print(
            "relabeling: "
            + " ".join(
                f"{old}->{cert.relabeling.apply(old)}"
                for old in range(1, cert.relabeling.n + 1)
            )
        )
        print(f"ideal ({len(cert.ideal)} relations):")
        for g in cert.ideal:
            print(f"  rel {' '.join(g.word)}  # composition order: {''.join(reversed(g.word))}")
        print(f"verified gldim: {_ext(cert.verified_gldim)}")
    return 0


def cmd_corollary(args) -> int:
    quiver, _, digest = _load(args.file)
    ok, witness = construct.gldim2_achievable(quiver)
    payload = {
        "command": "corollary",
        "input_hash": digest,
        "achievable": ok,
    }
    if ok:
        path, sigma = witness
        payload["witness_path"] = list(path.word)
        payload["relabeling"] = {
            str(old): sigma.apply(old) for old in range(1, sigma.n + 1)
        }
    if args.json:
        _emit_json(payload)
    else:
        if ok:
            path, _ = witness
            print(f"yes: loopless with composable pair {'.'.join(path.word)}")
        else:
            print("no: needs a loopless quiver with a composable arrow pair")
    return 0 if ok else 1


def cmd_check_sqh(args) -> int:
    quiver, relations, digest = _load(args.file)
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    report = qh.check_strongly_qh(algebra, p=args.field)
    if args.json:
        _emit_json(
            {
                "command": "check-sqh",
                "input_hash": digest,
                "sqh": {
                    "overall": report.overall,
                    "vertices": {
                        str(v): {
                            "r_projective_ok": r.r_projective_ok,
                            "delta_factors_ok": r.delta_factors_ok,
                            "hom_delta_ok": r.hom_delta_ok,
                        }
                        for v, r in report.vertices.items()
                    },
                },
            }
        )
    else:
        for v in sorted(report.vertices):
            r = report.vertices[v]
            print(
                f"vertex {v}: R-projective {'ok' if r.r_projective_ok else 'FAIL'}, "
                f"Delta factors {'ok' if r.delta_factors_ok else 'FAIL'}, "
                f"Hom-delta {'ok' if r.hom_delta_ok else 'FAIL'}"
            )
        print(f"strongly quasi-hereditary: {'yes' if report.overall else 'no'}")
    return 0 if report.overall else 1


def _verify_checks(algebra: Algebra, field: int, max_deg: int) -> list[dict]:
    q = algebra.quiver
    checks: list[dict] = []
    adm = algebra.admissibility
    checks.append(
        {
            "name": "admissible",
            "ok": adm.ok,
            "detail": f"all paths of length {adm.bound} vanish" if adm.ok else adm.reason,
        }
    )
    if not adm.ok:
        return checks
    for label, build in (
        ("S", ModuleSpec.simple),
        ("Delta", ModuleSpec.delta),
        ("Gamma", ModuleSpec.gamma),
    ):
        for i in q.vertices():
            spec = build(q, i)
            chain = homology.resolve(algebra, spec, max_deg=max_deg)
            matrix = oracle.minimal_resolution(algebra, spec, max_deg, p=field)
            same = chain.betti == matrix.betti and chain.complete == matrix.complete
            checks.append(
                {
                    "name": f"betti_match_{label}_{i}",
                    "ok": same,
                    "detail": "chain and matrix engines agree"
                    if same
                    else f"chain={chain} matrix={matrix}",
                }
            )
            if chain.complete:
                checks.append(
                    {
                        "name": f"euler_{label}_{i}",
                        "ok": homology.check_euler_identity(algebra, spec, chain),
                        "detail": "alternating sum matches composition vector",
                    }
                )
    return checks


def cmd_verify(args) -> int:
    quiver, relations, digest = _load(args.file)
    algebra = Algebra(quiver, relations)
    max_deg = args.max_deg if args.max_deg is not None else 8
    checks = _verify_checks(algebra, args.field, max_deg)
    ok = all(c["ok"] for c in checks)
    if args.json:
        _emit_json(
            {
                "command": "verify",
                "input_hash": digest,
                "checks": checks,
                "ok": ok,
            }
        )
    else:
        for c in checks:
            print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'} ({c['detail']})")
        print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    quiver, relations, digest = _load(args.file)
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    q = algebra.quiver
    max_deg = args.max_deg if args.max_deg is not None else 8
    fields = [args.field] if args.field else [2, oracle.DEFAULT_PRIME]
    checks: list[dict] = []
    for p in fields:
        for label, build in (
            ("S", ModuleSpec.simple),
            ("Delta", ModuleSpec.delta),
            ("Gamma", ModuleSpec.gamma),
        ):
            for i in q.vertices():
                spec = build(q, i)
                chain = homology.resolve(algebra, spec, max_deg=max_deg)
                matrix = oracle.minimal_resolution(algebra, spec, max_deg, p=p)
                same = chain.betti == matrix.betti and chain.complete == matrix.complete
                checks.append(
                    {"name": f"p{p}_{label}_{i}", "ok": same, "detail": ""}
                )
    ok = all(c["ok"] for c in checks)
    if args.json:
        _emit_json(
            {"command": "oracle-check", "input_hash": digest, "checks": checks, "ok": ok}
        )
    else:
        for c in checks:
            print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'}")
        print("engines agree" if ok else "engines DISAGREE")
    return 0 if ok else 1


def cmd_render(args) -> int:
    quiver, relations, _ = _load(args.file)
    algebra = Algebra(quiver, relations)
    algebra.require_admissible()
    if args.format != "dot":
        raise ValueError(f"unsupported format {args.format!r} (only 'dot')")
    spec = parse_module_spec(quiver, args.module)
    sys.stdout.write(render.module_quiver_dot(algebra, spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
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

    p = add("gldim", cmd_gldim, help="global dimension and per-simple pdims")
    p.add_argument("--json", action="store_true")

    p = add("resolve", cmd_resolve, help="minimal projective resolution (Betti data)")
    p.add_argument("--module", required=True, help="S:i | P:i | Delta:i | Gamma:i[:m] | M:i:a,b")
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("construct", cmd_construct, help="ideal achieving a target global dimension")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("corollary", cmd_corollary, help="is global dimension 2 achievable?")
    p.add_argument("--json", action="store_true")

    p = add("check-sqh", cmd_check_sqh, help="strongly quasi-hereditary report")
    p.add_argument("--field", type=int, default=oracle.DEFAULT_PRIME)
    p.add_argument("--json", action="store_true")

    p = add("verify", cmd_verify, help="cross-check both engines on this algebra")
    p.add_argument("--field", type=int, default=oracle.DEFAULT_PRIME)
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("oracle-check", cmd_oracle_check, help="Betti equality across engines and fields")
    p.add_argument("--field", type=int, default=None)
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("render", cmd_render, help="DOT diagram of a module quiver")
    p.add_argument("--module", required=True, help="S:i | P:i | Delta:i | Gamma:i[:m] | M:i:a,b")
    p.add_argument("--format", default="dot")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        qvfile.QvParseError, NotAdmissibleError, ValueError, OSError, BasisCapExceeded
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
