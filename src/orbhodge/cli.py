"""Command-line front end.

One subcommand per check operation, JSON in, deterministic report out.
Exit codes: 0 when every check passes (caveats allowed), 1 when a
mathematical check fails, 2 when the input is invalid.  Bare input names
resolve against the shipped fixtures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exactla import GaussRational, QiMatrix, Subspace, neg_one_power
from .fixture_store import shipped_names, shipped_text
from .hodge import (BilinearFormData, SymmetrySignMismatch, check_polarization,
                    validate_hodge_structure)
from .mhs import (NilpotentOperator, NotCommuting, NotNilpotent, OrbitPoint,
                  check_orbit_polarized_at, check_pmhs, mhs_from_bigrading)
from .orbifold import (GroupElementAction, age, check_kaehler_orbit,
                       check_primitive_polarizations, check_total_pmhs,
                       default_samples, hlc_check, is_sl, orbifold_hard_lefschetz,
                       validate_dims)
from .report import Report
from .serialization import (InputError, encode_matrix, encode_rational, encode_scalar,
                            load_document, parse_gauss_text)
from .toric import OriginNotInterior, hlc_verdict, is_reflexive, polar_dual

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


@dataclass
class RunReport:
    command: str
    verdict: str  # pass | fail | caveat
    items: list = field(default_factory=list)  # {check_id, status, witness}
    timing: Optional[int] = None  # milliseconds, only with --timing
    extra: dict = field(default_factory=dict)  # command-specific payload
    text_override: Optional[str] = None  # exact text-mode output, if set

    def as_dict(self) -> dict:
        out = {"command": self.command, "verdict": self.verdict, "items": self.items}
        if self.timing is not None:
            out["timing"] = self.timing
        out.update(self.extra)
        return out


def sanitize(value):
    """Witness values as JSON-safe, deterministic structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return encode_rational(value)
    if isinstance(value, GaussRational):
        return encode_scalar(value)
    if isinstance(value, QiMatrix):
        return encode_matrix(value)
    if isinstance(value, Subspace):
        return [[encode_scalar(x) for x in v] for v in value.vectors()]
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    return str(value)


def report_to_run(command: str, report: Report) -> RunReport:
    items = [{"check_id": it.check_id, "status": it.status, "witness": sanitize(it.witness)}
             for it in report.items]
    return RunReport(command, report.verdict(), items)


def emit(run: RunReport, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(json.dumps(run.as_dict(), indent=2, sort_keys=True) + "\n")
    elif run.text_override is not None:
        print(run.text_override)
        if run.timing is not None:
            print(f"timing: {run.timing} ms")
    else:
        print(f"{run.command}: {run.verdict}")
        for it in run.items:
            line = f"  [{it['status']}] {it['check_id']}"
            if it.get("witness") is not None:
                line += " " + json.dumps(it["witness"], sort_keys=True)
            print(line)
        for key, value in run.extra.items():
            if key == "dual_vertices":
                print("dual vertices:")
                for v in value:
                    print("  (" + ", ".join(str(x) for x in v) + ")")
            elif key != "dual":
                print(f"{key}: {json.dumps(value, sort_keys=True)}")
        if run.timing is not None:
            print(f"timing: {run.timing} ms")
    return EXIT_PASS if run.verdict in ("pass", "caveat") else EXIT_FAIL


def resolve_input(name: str) -> str:
    path = Path(name)
    if path.is_file():
        return path.read_text()
    stem = name[:-5] if name.endswith(".json") else name
    if "/" not in name and stem in shipped_names():
        return shipped_text(stem)
    raise InputError([("$", f"no such file or shipped fixture: {name}")])


def load_kind(name: str, expected: str):
    kind, obj = load_document(resolve_input(name))
    if kind != expected:
        raise InputError([("$.kind", f"expected {expected}, got {kind}")])
    return obj


# ------------------------------------------------------------- subcommands

def cmd_dual(args) -> RunReport:
    p = load_kind(args.file, "polytope")
    try:
        d = polar_dual(p)
    except OriginNotInterior as exc:
        raise InputError([("$.vertices", str(exc))])
    report = Report()
    reflexive = is_reflexive(p)
    if reflexive:
        report.passed("reflexive")
    else:
        report.warned("reflexive", {"lattice_dual": d.is_lattice()})
    run = report_to_run("dual", report)
    verts = sorted(d.vertex_set())
    run.extra["reflexive"] = reflexive
    run.extra["dual_vertices"] = [[encode_rational(x) for x in v] for v in verts]
    if d.is_lattice():
        run.extra["dual"] = {"kind": "polytope", "dim": d.dim,
                             "vertices": [[int(x) for x in v] for v in verts]}
    return run


def cmd_hlc(args) -> RunReport:
    p = load_kind(args.file, "polytope")
    if not is_reflexive(p):
        raise InputError([("$", "hard Lefschetz verdicts need a reflexive polytope")])
    v = hlc_verdict(p)
    report = Report()
    failing = {id(c) for c in v.witnesses}
    for c in v.candidates:
        witness = {"point": list(c.lattice_point), "face_dim": c.face.face_dim,
                   "sector_dim": c.sector_dim, "age": c.age}
        if id(c) in failing:
            report.failed("sector_candidate", witness)
        else:
            report.passed("sector_candidate", witness)
    if v.verdict == "holds_with_caveat":
        report.warned("sector_enumeration", {"note": v.note})
    elif v.verdict == "holds" and v.note:
        report.warned("sector_enumeration", {"note": v.note})
    run = report_to_run("hlc", report)
    run.extra["condition"] = v.verdict
    return run


def cmd_check_hs(args) -> RunReport:
    h, form = load_kind(args.file, "hodge_structure")
    report = validate_hodge_structure(h)
    if report.ok():
        report.passed("structure_valid")
        if form is not None:
            try:
                report.merge(check_polarization(h, form), prefix="polarization:")
            except SymmetrySignMismatch as exc:
                raise InputError([("$.form.symmetry_sign", str(exc))])
    return report_to_run("check-hs", report)


def _pmhs_context(data, report: Report):
    """Resolve (w, f), form, operators from a decoded pmhs bundle; report
    axiom violations instead of raising.  Returns None when unusable."""
    k = data["weight"]
    try:
        q = BilinearFormData(data["form"], neg_one_power(k))
    except ValueError as exc:
        report.failed("form_symmetry", {"reason": str(exc)})
        return None
    operators = []
    for i, m in enumerate(data["nilpotents"]):
        try:
            operators.append(NilpotentOperator(m))
        except (NotNilpotent, ValueError) as exc:
            report.failed("nilpotent", {"operator": i, "reason": str(exc)})
            return None
    if data["bigrading"] is not None:
        try:
            w, f, sub = mhs_from_bigrading(data["bigrading"])
        except ValueError as exc:
            report.failed("bigrading_splits", {"reason": str(exc)})
            return None
        report.merge(sub, prefix="mhs:")
        if not sub.ok():
            return None
    else:
        w, f = data["filtrations"]
    return w, f, q, operators, k


def _sample_points(args, data, count: int):
    if getattr(args, "samples", None):
        out = []
        for token in args.samples:
            for piece in token.split():
                coords = tuple(parse_gauss_text(part) for part in piece.split(","))
                if len(coords) != count:
                    raise InputError([("--samples",
                                       f"expected {count} coordinates, got {len(coords)}")])
                out.append(coords)
        return out
    if data is not None and data.get("samples"):
        return data["samples"]
    return default_samples(count)


def _check_samples(report: Report, samples, f, q, operators, k) -> None:
    """Merge the orbit check at each sample point into report, stopping at
    the first set of operators that do not commute."""
    for z in samples:
        try:
            pt = OrbitPoint(z, operators)
        except NotCommuting as exc:
            report.failed("operators_commute", {"reason": str(exc)})
            return
        label = ",".join(str(c) for c in z)
        report.merge(check_orbit_polarized_at(f, pt, k, q), prefix=f"orbit[{label}]:")


def cmd_check_pmhs(args) -> RunReport:
    data = load_kind(args.file, "pmhs")
    report = Report()
    context = _pmhs_context(data, report)
    if context is not None:
        w, f, q, operators, k = context
        for i, op in enumerate(operators):
            prefix = f"N{i}:" if len(operators) > 1 else ""
            report.merge(check_pmhs(w, f, q, op, k), prefix=prefix)
        if args.samples or data.get("samples"):
            _check_samples(report, _sample_points(args, data, len(operators)), f, q, operators, k)
    return report_to_run("check-pmhs", report)


def cmd_check_orbifold(args) -> RunReport:
    o = load_kind(args.file, "orbifold")
    coeffs = _coeffs(args, o.kaehler_basis_size)
    report = Report()
    report.merge(validate_dims(o), prefix="dims:")
    report.merge(hlc_check(o), prefix="hlc:")
    report.merge(orbifold_hard_lefschetz(o, coeffs), prefix="lefschetz:")
    report.merge(check_primitive_polarizations(o, coeffs), prefix="primitive:")
    report.merge(check_total_pmhs(o, coeffs), prefix="total:")
    return report_to_run("check-orbifold", report)


def _coeffs(args, r: int):
    if not getattr(args, "coeffs", None):
        return [1] * r
    if len(args.coeffs) != r:
        raise InputError([("--coeffs", f"expected {r} rationals, got {len(args.coeffs)}")])
    try:
        return [Fraction(c) for c in args.coeffs]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError([("--coeffs", str(exc))])


def cmd_orbit(args) -> RunReport:
    kind, obj = load_document(resolve_input(args.file))
    report = Report()
    if kind == "orbifold":
        samples = None
        if args.samples:
            samples = _sample_points(args, None, obj.kaehler_basis_size)
        report = check_kaehler_orbit(obj, samples)
    elif kind == "pmhs":
        context = _pmhs_context(obj, report)
        if context is not None:
            _w, f, q, operators, k = context
            _check_samples(report, _sample_points(args, obj, len(operators)), f, q, operators, k)
    else:
        raise InputError([("$.kind", f"orbit needs an orbifold or pmhs input, got {kind}")])
    return report_to_run("orbit", report)


def cmd_age(args) -> RunReport:
    try:
        exponents = [int(x) for x in args.exponents.split(",")] if args.exponents else []
    except ValueError as exc:
        raise InputError([("--exponents", str(exc))])
    try:
        g = GroupElementAction(args.order, exponents)
    except ValueError as exc:
        raise InputError([("--exponents", str(exc))])
    a = age(g)
    sl = is_sl(g)
    report = Report()
    report.passed("age", {"age": a, "sl": sl})
    run = report_to_run("age", report)
    run.extra["age"] = encode_rational(a)
    run.extra["sl"] = sl
    run.text_override = f"{a}, SL: {'true' if sl else 'false'}"
    return run


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbhodge",
        description="Exact checks for orbifold cohomology, Hodge structures, "
                    "and reflexive polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_arg=True):
        if file_arg:
            p.add_argument("file", help="input JSON file or shipped fixture name")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.add_argument("--timing", action="store_true", help="include elapsed milliseconds")

    p = sub.add_parser("dual", help="polar dual of a polytope, with reflexivity flag")
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("hlc", help="hard Lefschetz verdict for the anticanonical hypersurface")
    common(p)
    p.set_defaults(func=cmd_hlc)

    p = sub.add_parser("check-hs", help="validate a Hodge structure, optionally a polarization")
    common(p)
    p.set_defaults(func=cmd_check_hs)

    p = sub.add_parser("check-pmhs", help="verify a polarized mixed Hodge structure")
    common(p)
    p.add_argument("--samples", nargs="+", metavar="Z",
                   help="orbit sample points, e.g. i 2i 1+i (comma-join coordinates)")
    p.set_defaults(func=cmd_check_pmhs)

    p = sub.add_parser("check-orbifold", help="run the full orbifold theorem checks")
    common(p)
    p.add_argument("--coeffs", nargs="+", metavar="R",
                   help="Kaehler combination coefficients (rationals)")
    p.set_defaults(func=cmd_check_orbifold)

    p = sub.add_parser("orbit", help="sample the nilpotent orbit for polarized structures")
    common(p)
    p.add_argument("--samples", nargs="+", metavar="Z",
                   help="sample points with rational coordinates, e.g. i 2i 1+i")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("age", help="age and SL flag of a local group action")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma-separated, e.g. 1,1")
    common(p, file_arg=False)
    p.set_defaults(func=cmd_age)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        run = args.func(args)
    except InputError as exc:
        for path, message in exc.problems:
            print(f"invalid input at {path}: {message}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.timing:
        run.timing = int((time.monotonic() - start) * 1000)
    return emit(run, args.json)


if __name__ == "__main__":
    sys.exit(main())
