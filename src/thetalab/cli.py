"""Command-line front end: lattice ingestion, verification jobs, reports.

Reports are deterministic: payloads are canonically ordered, and neither the
worker count nor cache state appears in the report body (timings and cache
statistics go to stderr).  Exit codes: 0 pass/computed, 2 verification
failure, 3 input error, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import enumeration, jacobi, lattices, niemeier, theta
from .enumeration import GramTarget
from .exactnum import NotPositiveDefiniteError
from .lattices import GlueSpec, Lattice, LatticeError

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

REPORT_HEADER = "# thetalab-report 1"

# Default trace bounds per genus, sized for desk-scale runs.
DEFAULT_TRACE_BOUNDS = {1: 10, 2: 8, 3: 6}
WITT_TRACE_BOUNDS = {1: 8, 2: 8, 3: 6}


class InputError(ValueError):
    pass


@dataclass
class Report:
    job: str
    params: dict
    lattice_ids: dict[str, str]
    status: str  # pass | fail | computed
    payload: list[str] = field(default_factory=list)
    internal_inconsistency: bool = False

    def render(self) -> str:
        lines = [REPORT_HEADER, f"job: {self.job}"]
        lines.append("params: " + json.dumps(self.params, sort_keys=True, separators=(",", ":")))
        for name in sorted(self.lattice_ids):
            lines.append(f"lattice: {name} {self.lattice_ids[name]}")
        lines.append(f"status: {self.status}")
        lines.append("payload:")
        lines.extend(self.payload)
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        if self.internal_inconsistency:
            return EXIT_INTERNAL
        return EXIT_PASS if self.status in ("pass", "computed") else EXIT_FAIL


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_rows(rows, what: str) -> list[list[int]]:
    """A JSON list of lists of integers, checked (floats, strings and bools are rejected)."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in rows
    ):
        raise InputError(f"{what} must be a list of lists of integers")
    return rows


def load_spec_file(path: str) -> Lattice:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
        raise InputError(f"cannot read lattice spec {path}: {e}")
    if not isinstance(data, dict):
        raise InputError("lattice spec must be a JSON object")
    schema = data.get("schema", "thetalab-lattice/1")
    if schema != "thetalab-lattice/1":
        raise InputError(f"unsupported lattice spec schema {schema!r}")
    name = data.get("name", path)
    try:
        if "gram" in data:
            gram = _int_rows(data["gram"], "gram")
            if any(len(row) != len(gram) for row in gram):
                raise InputError("gram must be a square matrix")
            return lattices.from_gram(name, gram)
        if "components" in data:
            comps = data["components"]
            if not isinstance(comps, list) or not all(
                isinstance(c, list) and len(c) == 2 and isinstance(c[0], str) and _is_int(c[1])
                for c in comps
            ):
                raise InputError("components must be a list of [kind, rank] pairs")
            words = _int_rows(data.get("glue_words", []), "glue_words")
            spec = GlueSpec(tuple(map(tuple, comps)), tuple(map(tuple, words)))
            return lattices.glue(spec, name=name)
        if data.get("construction") == "D_plus":
            if not _is_int(data.get("n")):
                raise InputError("D_plus construction needs an integer n")
            return lattices.plus_construction(data["n"])
    except InputError:
        raise
    except ValueError as e:  # LatticeError, or an invalid ADE symbol or glue class
        raise InputError(f"invalid lattice spec {path}: {e}")
    raise InputError("lattice spec needs one of: gram, components, construction")


def _option(value, default):
    """An option's value, or `default` when it was not given (0 is a value)."""
    return default if value is None else value


def _builtin(name: str) -> Lattice:
    try:
        return niemeier.builtin(name)
    except KeyError:
        raise InputError(f"unknown lattice {name!r}; see `thetalab list`")


def resolve_lattice(args, which: str = "lattice") -> Lattice:
    name = getattr(args, which.replace("-", "_"), None)
    if name:
        return _builtin(name)
    if getattr(args, "spec", None):
        return load_spec_file(args.spec)
    raise InputError(f"--{which} NAME or --spec FILE is required")


def resolve_pair(args) -> tuple[Lattice, Lattice]:
    if not args.pair:
        raise InputError("--pair A:B is required")
    a, _, b = args.pair.partition(":")
    if not a or not b:
        raise InputError("--pair must look like NAME:NAME")
    return _builtin(a), _builtin(b)


def load_tset(path: str | None) -> tuple[GramTarget, ...]:
    if not path:
        return theta.CURATED_GENUS4
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
        raise InputError(f"cannot read target set {path}: {e}")
    if isinstance(data, dict):
        if "targets" not in data:
            raise InputError("target set object needs a 'targets' list")
        data = data["targets"]
    targets = []
    for upper in _int_rows(data, "target set"):
        n = len(upper)
        genus = {1: 1, 3: 2, 6: 3, 10: 4}.get(n)
        if genus is None:
            raise InputError(f"upper triangle of length {n} is not a valid index")
        targets.append(GramTarget.from_upper(genus, upper))
    if not targets:
        raise InputError("empty target set")
    return tuple(targets)


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# Job implementations


def job_validate(args) -> Report:
    lat = resolve_lattice(args)
    rep = lattices.validate(lat)
    payload = [
        f"even: {str(rep.even).lower()}",
        f"det: {rep.det}",
        f"positive_definite: {str(rep.positive_definite).lower()}",
        f"min_norm: {rep.min_norm}",
        f"root_count: {rep.root_count}",
    ]
    status = "pass" if rep.is_even_unimodular else "fail"
    if rep.positive_definite and rep.root_count:
        rs = lattices.root_system(lat)
        payload.append(f"root_system: {rs.label}")
    return Report("validate", _echo(args), {lat.name: lat.fingerprint}, status, payload)


def job_shells(args) -> Report:
    lat = resolve_lattice(args)
    bound = _option(args.norm_bound, 8)
    counts = enumeration.shell_counts_upto(lat, bound)
    payload = [f"{q} {counts.get(q, 0)}" for q in range(0, bound + 1, 2)]
    return Report("shells", _echo(args), {lat.name: lat.fingerprint}, "computed", payload)


def job_theta(args) -> Report:
    lat = resolve_lattice(args)
    genus = _option(args.genus, 1)
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    tr = theta.theta_truncated(lat, genus, bound, jobs=args.jobs)
    payload = theta.export_series(tr).splitlines()
    return Report("theta", _echo(args), {lat.name: lat.fingerprint}, "computed", payload)


def job_diff(args) -> Report:
    la, lb = resolve_pair(args)
    genus = _option(args.genus, 1)
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    fa = theta.theta_truncated(la, genus, bound, jobs=args.jobs)
    fb = theta.theta_truncated(lb, genus, bound, jobs=args.jobs)
    d = theta.series_difference(fa, fb)
    payload = [f"is_zero: {str(d.is_zero).lower()}"]
    payload.extend(theta.export_series(d).splitlines())
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("diff", _echo(args), ids, "computed", payload)


def job_product(args) -> Report:
    la, lb = resolve_pair(args)
    genus = _option(args.genus, 1)
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    fa = theta.theta_truncated(la, genus, bound, jobs=args.jobs)
    fb = theta.theta_truncated(lb, genus, bound, jobs=args.jobs)
    prod = theta.series_product(fa, fb)
    payload = theta.export_series(prod).splitlines()
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("product", _echo(args), ids, "computed", payload)


def job_restrict(args) -> Report:
    lat = resolve_lattice(args)
    genus = _option(args.genus, 2)
    if genus < 1:
        raise InputError("restrict needs --genus >= 1")
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    upper = theta.theta_truncated(lat, genus, bound, jobs=args.jobs)
    restricted = theta.siegel_restrict(upper)
    direct = theta.theta_truncated(lat, genus - 1, bound, jobs=args.jobs)
    equal = restricted == direct
    payload = [f"equal: {str(equal).lower()}"]
    payload.extend(theta.export_series(restricted).splitlines())
    status = "pass" if equal else "fail"
    return Report("restrict", _echo(args), {lat.name: lat.fingerprint}, status, payload)


def job_venkov(args) -> Report:
    names = [args.lattice] if args.lattice else list(niemeier.RANK24_NAMES)
    bound = _option(args.norm_bound, 8)
    reports = []
    ids = {}
    for name in names:
        lat = _builtin(name)
        ids[lat.name] = lat.fingerprint
        reports.append(jacobi.venkov_constant(lat, norm_bound=bound))
    payload = []
    for rep in reports:
        payload.append(
            f"{rep.lattice_id}: r2={rep.r2} c={_fmt_frac(rep.constant)} "
            f"consistent={str(rep.consistent).lower()} spot_checked={rep.verified_vectors}"
        )
    constants = {rep.constant for rep in reports}
    all_consistent = all(rep.consistent for rep in reports)
    uniform = len(constants) == 1
    if uniform:
        c = next(iter(constants))
        payload.append(f"uniform_constant: {_fmt_frac(c)}")
        payload.append(
            "note: c = rank/2 under the Gram-matrix pairing; 2*rank corresponds to "
            "the doubled-form normalization of the same identity"
        )
    status = "pass" if (all_consistent and uniform) else "fail"
    return Report(
        "venkov", _echo(args), ids, status, payload,
        internal_inconsistency=all_consistent and not uniform,
    )


def job_heat(args) -> Report:
    lat = resolve_lattice(args)
    genus = _option(args.genus, 2)
    bound = _option(args.trace_bound, 4)
    ven = jacobi.venkov_constant(lat, per_vector_norm_cap=2)
    if not ven.consistent:
        return Report("heat", _echo(args), {lat.name: lat.fingerprint}, "fail",
                      ["moment identity inconsistent; no constant available"])
    jac = jacobi.jacobi_coefficient(lat, genus, 1, bound, jobs=args.jobs)
    payload = [f"c: {_fmt_frac(ven.constant)}"]
    ok_all = True
    for s in enumeration.candidate_targets(genus, bound):
        if enumeration.representation_count(lat, s, jobs=args.jobs) == 0:
            continue
        ok = jacobi.heat_coefficient_check(lat, genus, s, ven.constant, jacobi=jac, jobs=args.jobs)
        ok_all &= ok
        payload.append(f"S [{s.key()}]: {'ok' if ok else 'FAIL'}")
    return Report("heat", _echo(args), {lat.name: lat.fingerprint}, "pass" if ok_all else "fail", payload)


def job_witt(args) -> Report:
    la, lb = niemeier.builtin("E8+E8"), niemeier.builtin("D16+")
    gmax = _option(args.max_genus, 3)
    if gmax < 1:
        raise InputError("witt needs --max-genus >= 1")
    payload = []
    ok_all = True
    for genus in range(1, gmax + 1):
        bound = _option(args.trace_bound, WITT_TRACE_BOUNDS.get(genus, 6))
        pa = theta.theta_truncated(la, genus, bound, jobs=args.jobs)
        pb = theta.theta_truncated(lb, genus, bound, jobs=args.jobs)
        equal = pa == pb
        ok_all &= equal
        payload.append(
            f"genus {genus} trace<={bound}: {len(pa.coeffs)} coefficients, equal={str(equal).lower()}"
        )
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("witt", _echo(args), ids, "pass" if ok_all else "fail", payload)


def job_schottky(args) -> Report:
    la, lb = niemeier.builtin("E8+E8"), niemeier.builtin("D16+")
    bound = _option(args.trace_bound, 8)
    payload = []
    witness = None
    for t in theta.CURATED_GENUS4:
        if t.trace > bound:
            continue
        ca = enumeration.representation_count(la, t, jobs=args.jobs)
        cb = enumeration.representation_count(lb, t, jobs=args.jobs)
        payload.append(f"T [{t.key()}]: {ca} {cb}")
        if ca != cb and witness is None:
            witness = t
    if witness is not None:
        payload.append(f"witness: {witness.key()}")
        status = "pass"
    else:
        payload.append("witness: none within curated set")
        status = "fail"
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("schottky", _echo(args), ids, status, payload)


def job_a4_separation(args) -> Report:
    la, lb = resolve_pair(args)
    bound = _option(args.norm_bound, 10)
    ca = enumeration.shell_counts_upto(la, bound)
    cb = enumeration.shell_counts_upto(lb, bound)
    genus1_equal = ca == cb
    ra = enumeration.representation_count(la, theta.GRAM_A4, jobs=args.jobs)
    rb = enumeration.representation_count(lb, theta.GRAM_A4, jobs=args.jobs)
    separated = ra != rb
    payload = [
        f"genus1_equal_to_norm_{bound}: {str(genus1_equal).lower()}",
        f"r_left(A4): {ra}",
        f"r_right(A4): {rb}",
        f"separated: {str(separated).lower()}",
    ]
    status = "pass" if (genus1_equal and separated) else "fail"
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("a4-separation", _echo(args), ids, status, payload)


def job_k_identity(args) -> Report:
    la, lb = resolve_pair(args)
    targets = load_tset(args.tset)
    rep = theta.k_identity_check(la, lb, t_set=targets, jobs=args.jobs)
    payload = [
        f"k: {_fmt_frac(rep.k)}",
        f"normalizing_T: {rep.normalizing_target.key()}",
        f"verified: {str(rep.verified).lower()}",
    ]
    for t, lhs, rhs in rep.rows:
        payload.append(f"T [{t.key()}]: lhs={lhs} rhs={rhs}")
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("k-identity", _echo(args), ids, "pass" if rep.verified else "fail", payload)


def job_independence(args) -> Report:
    if args.lattices == []:
        raise InputError("--lattices needs at least one lattice name")
    names = list(niemeier.RANK24_NAMES) if args.lattices is None else args.lattices
    genus = _option(args.genus, 4)
    ids = {}
    series = []
    for name in names:
        lat = _builtin(name)
        ids[lat.name] = lat.fingerprint
        if genus <= 3:
            bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
            series.append(theta.theta_truncated(lat, genus, bound, jobs=args.jobs))
        else:
            bound = _option(args.trace_bound, 8)
            coeffs = {
                t: enumeration.representation_count(lat, t, jobs=args.jobs)
                for t in theta.CURATED_GENUS4
                if t.trace <= bound
            }
            series.append(
                theta.Series(
                    genus=4,
                    trace_bound=bound,
                    weight=Fraction(lat.rank, 2),
                    coeffs={t: c for t, c in coeffs.items() if c},
                    provenance=f"curated:{lat.name}",
                )
            )
    rank = theta.linear_independence_rank(series)
    payload = [f"series: {len(series)}", f"rank: {rank}"]
    return Report("independence", _echo(args), ids, "computed", payload)


def job_hyp_predicate(args) -> Report:
    la, lb = resolve_pair(args)
    result = lattices.stable_eq_hyp_predicate(la, lb)
    mu_a = lattices.minimum_norm(la)
    mu_b = lattices.minimum_norm(lb)
    payload = [
        f"rank: {la.rank} {lb.rank}",
        f"min_norm: {mu_a} {mu_b}",
        f"predicate: {str(result).lower()}",
    ]
    ids = {la.name: la.fingerprint, lb.name: lb.fingerprint}
    return Report("hyp-predicate", _echo(args), ids, "computed", payload)


def registry_list() -> list[dict]:
    """Deterministic listing of built-in lattices: name, rank, minimum, root data."""
    out = []
    for name in niemeier.BUILTIN_NAMES:
        lat = niemeier.builtin(name)
        mu = lattices.minimum_norm(lat)
        r2 = enumeration.shell_count(lat, 2)
        label = lattices.root_system(lat).label if r2 else "(no roots)"
        out.append(
            {
                "name": name,
                "rank": lat.rank,
                "min_norm": mu,
                "r2": r2,
                "root_system": label,
                "fingerprint": lat.fingerprint,
            }
        )
    return out


def job_list(args) -> Report:
    payload = []
    ids = {}
    for row in registry_list():
        ids[row["name"]] = row["fingerprint"]
        payload.append(
            f"{row['name']}: rank={row['rank']} mu={row['min_norm']} "
            f"r2={row['r2']} roots={row['root_system']}"
        )
    return Report("list", _echo(args), ids, "computed", payload)


JOBS = {
    "validate": job_validate,
    "shells": job_shells,
    "theta": job_theta,
    "diff": job_diff,
    "product": job_product,
    "restrict": job_restrict,
    "venkov": job_venkov,
    "heat": job_heat,
    "witt": job_witt,
    "schottky": job_schottky,
    "a4-separation": job_a4_separation,
    "k-identity": job_k_identity,
    "independence": job_independence,
    "hyp-predicate": job_hyp_predicate,
    "list": job_list,
}


def _echo(args) -> dict:
    """Deterministic parameter echo: everything that shapes the result, and
    nothing that doesn't (worker count, output path, cache state)."""
    keep = ("lattice", "spec", "pair", "genus", "trace_bound", "norm_bound",
            "max_genus", "tset", "lattices")
    out = {}
    for k in keep:
        v = getattr(args, k, None)
        if v is not None:
            out[k.replace("_", "-")] = v
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thetalab",
        description="Exact lattice theta-series computations and identity checks.",
    )
    p.add_argument("kind", choices=sorted(JOBS))
    p.add_argument("--lattice", help="built-in lattice name")
    p.add_argument("--lattices", nargs="*", help="several built-in lattice names")
    p.add_argument("--spec", help="lattice spec file (JSON)")
    p.add_argument("--pair", help="two built-in lattice names, A:B")
    p.add_argument("--genus", type=int)
    p.add_argument("--trace-bound", type=int, dest="trace_bound")
    p.add_argument("--norm-bound", type=int, dest="norm_bound")
    p.add_argument("--max-genus", type=int, dest="max_genus")
    p.add_argument("--tset", help="JSON file with a list of upper triangles")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the report to this file")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    for opt in ("genus", "trace_bound", "norm_bound", "max_genus"):
        v = getattr(args, opt, None)
        if v is not None and v < 0:
            print(f"error: --{opt.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return EXIT_INPUT
    t0 = time.time()
    try:
        report = JOBS[args.kind](args)
    except (InputError, LatticeError, NotPositiveDefiniteError,
            enumeration.RepresentationDomainError, theta.SeriesError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    text = report.render()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report {args.out}: {e}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    stats = enumeration.cache_stats()
    print(
        f"[thetalab] {args.kind}: {time.time() - t0:.2f}s  cache "
        f"mem={stats['memory_hits']} disk={stats['disk_hits']} "
        f"miss={stats['misses']} writes={stats['writes']} corrupt={stats['corrupt']}",
        file=sys.stderr,
    )
    return report.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
