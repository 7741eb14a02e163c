"""Command-line front end: lattice ingestion, verification jobs, reports.

Each kind of job is one row of `JOBS`: the job function, where its lattices
come from, and the options it reads (any other is an input error).  `run`
builds every report.  Reports are deterministic: payloads are canonically
ordered, and cache state never appears in the report body (timings and cache
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
from typing import Callable, NamedTuple

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

# The status of a failed check whose data contradict each other: it reads
# "fail" in the report and exits with EXIT_INTERNAL.
INTERNAL = "internal"


class InputError(ValueError):
    pass


@dataclass
class Report:
    job: str
    params: dict
    lattice_ids: dict[str, str]
    status: str  # pass | fail | computed | INTERNAL
    payload: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [REPORT_HEADER, f"job: {self.job}"]
        lines.append("params: " + json.dumps(self.params, sort_keys=True, separators=(",", ":")))
        for name in sorted(self.lattice_ids):
            lines.append(f"lattice: {name} {self.lattice_ids[name]}")
        lines.append(f"status: {'fail' if self.status == INTERNAL else self.status}")
        lines.append("payload:")
        lines.extend(self.payload)
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        if self.status == INTERNAL:
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
    # The name becomes a report line; a line break in it would forge more lines.
    if not isinstance(name, str) or name.splitlines() not in ([], [name]):
        raise InputError("lattice spec name must be a string without line breaks")
    try:
        if "gram" in data:
            return lattices.from_gram(name, _int_rows(data["gram"], "gram"))
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


def _builtins(names) -> list[Lattice]:
    return [_builtin(name) for name in names]


def resolve_lattice(args) -> list[Lattice]:
    if args.lattice and args.spec:
        raise InputError("give --lattice NAME or --spec FILE, not both")
    if args.lattice:
        return [_builtin(args.lattice)]
    if args.spec:
        return [load_spec_file(args.spec)]
    raise InputError("--lattice NAME or --spec FILE is required")


def resolve_pair(args) -> list[Lattice]:
    if not args.pair:
        raise InputError("--pair A:B is required")
    a, _, b = args.pair.partition(":")
    if not a or not b:
        raise InputError("--pair must look like NAME:NAME")
    return _builtins((a, b))


def _lattice_or_rank24(args) -> list[Lattice]:
    return resolve_lattice(args) if args.lattice or args.spec else _builtins(niemeier.RANK24_NAMES)


def _named_lattices(args) -> list[Lattice]:
    if args.lattices == []:
        raise InputError("--lattices needs at least one lattice name")
    return _builtins(niemeier.RANK24_NAMES if args.lattices is None else args.lattices)


# Where a job's lattices come from: the options that name them, and the resolver.
SOURCES: dict[str, tuple[tuple[str, ...], Callable[[argparse.Namespace], list[Lattice]]]] = {
    "lattice": (("lattice", "spec"), resolve_lattice),
    "pair": (("pair",), resolve_pair),
    "witt": ((), lambda args: _builtins(("E8+E8", "D16+"))),
    "lattice-or-rank24": (("lattice", "spec"), _lattice_or_rank24),
    "lattices": (("lattices",), _named_lattices),
    "registry": ((), lambda args: _builtins(niemeier.BUILTIN_NAMES)),
}


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
# Job implementations: each takes the options and its resolved lattices, and
# returns (status, payload).


def job_validate(args, lats):
    (lat,) = lats
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
        payload.append(f"root_system: {lattices.root_system(lat).label}")
    return status, payload


def job_shells(args, lats):
    (lat,) = lats
    bound = _option(args.norm_bound, 8)
    counts = enumeration.shell_counts_upto(lat, bound)
    return "computed", [f"{q} {counts.get(q, 0)}" for q in range(0, bound + 1, 2)]


def _series(args, lats) -> list[theta.Series]:
    """Each lattice's theta series at --genus (default 1) and its trace bound."""
    genus = _option(args.genus, 1)
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    return [theta.theta_truncated(lat, genus, bound) for lat in lats]


def job_theta(args, lats):
    (f,) = _series(args, lats)
    return "computed", theta.export_series(f).splitlines()


def job_diff(args, lats):
    d = theta.series_difference(*_series(args, lats))
    return "computed", [f"is_zero: {str(d.is_zero).lower()}", *theta.export_series(d).splitlines()]


def job_product(args, lats):
    return "computed", theta.export_series(theta.series_product(*_series(args, lats))).splitlines()


def job_restrict(args, lats):
    (lat,) = lats
    genus = _option(args.genus, 2)
    if genus < 1:
        raise InputError("restrict needs --genus >= 1")
    bound = _option(args.trace_bound, DEFAULT_TRACE_BOUNDS.get(genus, 6))
    restricted = theta.siegel_restrict(theta.theta_truncated(lat, genus, bound))
    equal = restricted == theta.theta_truncated(lat, genus - 1, bound)
    payload = [f"equal: {str(equal).lower()}", *theta.export_series(restricted).splitlines()]
    return "pass" if equal else "fail", payload


def job_venkov(args, lats):
    bound = _option(args.norm_bound, 8)
    reports = [jacobi.venkov_constant(lat, norm_bound=bound) for lat in lats]
    payload = [
        f"{rep.lattice_id}: r2={rep.r2} c={_fmt_frac(rep.constant)} "
        f"consistent={str(rep.consistent).lower()} spot_checked={rep.verified_vectors}"
        for rep in reports
    ]
    constants = {rep.constant for rep in reports}
    if len(constants) == 1:
        payload.append(f"uniform_constant: {_fmt_frac(next(iter(constants)))}")
        payload.append(
            "note: c = rank/2 under the Gram-matrix pairing; 2*rank corresponds to "
            "the doubled-form normalization of the same identity"
        )
    if not all(rep.consistent for rep in reports):
        return "fail", payload
    return ("pass" if len(constants) == 1 else INTERNAL), payload


def job_heat(args, lats):
    (lat,) = lats
    genus = _option(args.genus, 2)
    bound = _option(args.trace_bound, 4)
    ven = jacobi.venkov_constant(lat, per_vector_norm_cap=2)
    if not ven.consistent:
        return "fail", ["moment identity inconsistent; no constant available"]
    jac = jacobi.jacobi_coefficient(lat, genus, 1, bound)
    checks = jacobi.heat_profile_check(lat, genus, bound, ven.constant, jac)
    payload = [f"c: {_fmt_frac(ven.constant)}"]
    payload += [f"S [{s.key()}]: {'ok' if ok else 'FAIL'}" for s, ok in checks.items()]
    return "pass" if all(checks.values()) else "fail", payload


def job_witt(args, lats):
    la, lb = lats
    gmax = _option(args.max_genus, 3)
    if gmax < 1:
        raise InputError("witt needs --max-genus >= 1")
    payload = []
    ok_all = True
    for genus in range(1, gmax + 1):
        bound = _option(args.trace_bound, WITT_TRACE_BOUNDS.get(genus, 6))
        pa = theta.theta_truncated(la, genus, bound)
        equal = pa == theta.theta_truncated(lb, genus, bound)
        ok_all &= equal
        payload.append(
            f"genus {genus} trace<={bound}: {len(pa.coeffs)} coefficients, equal={str(equal).lower()}"
        )
    return "pass" if ok_all else "fail", payload


def job_schottky(args, lats):
    la, lb = lats
    bound = _option(args.trace_bound, 8)
    payload = []
    witness = None
    for t in theta.CURATED_GENUS4:
        if t.trace > bound:
            continue
        ca = enumeration.representation_count(la, t)
        cb = enumeration.representation_count(lb, t)
        payload.append(f"T [{t.key()}]: {ca} {cb}")
        if ca != cb and witness is None:
            witness = t
    if witness is None:
        return "fail", payload + ["witness: none within curated set"]
    return "pass", payload + [f"witness: {witness.key()}"]


def job_a4_separation(args, lats):
    la, lb = lats
    bound = _option(args.norm_bound, 10)
    genus1_equal = enumeration.shell_counts_upto(la, bound) == enumeration.shell_counts_upto(lb, bound)
    ra = enumeration.representation_count(la, theta.GRAM_A4)
    rb = enumeration.representation_count(lb, theta.GRAM_A4)
    separated = ra != rb
    payload = [
        f"genus1_equal_to_norm_{bound}: {str(genus1_equal).lower()}",
        f"r_left(A4): {ra}",
        f"r_right(A4): {rb}",
        f"separated: {str(separated).lower()}",
    ]
    return "pass" if (genus1_equal and separated) else "fail", payload


def job_k_identity(args, lats):
    la, lb = lats
    rep = theta.k_identity_check(la, lb, t_set=load_tset(args.tset))
    payload = [
        f"k: {_fmt_frac(rep.k)}",
        f"normalizing_T: {rep.normalizing_target.key()}",
        f"verified: {str(rep.verified).lower()}",
    ]
    payload.extend(f"T [{t.key()}]: lhs={lhs} rhs={rhs}" for t, lhs, rhs in rep.rows)
    return "pass" if rep.verified else "fail", payload


def job_independence(args, lats):
    if _option(args.genus, 4) <= 3:
        series = _series(args, lats)
    else:  # degree 4, on the curated indices; each log gets its new counts in one append
        bound = _option(args.trace_bound, 8)
        targets = [t for t in theta.CURATED_GENUS4 if t.trace <= bound]
        with enumeration._append_batch():
            counts = [[enumeration.representation_count(lat, t) for t in targets] for lat in lats]
        series = [
            theta.Series(
                genus=4,
                trace_bound=bound,
                weight=Fraction(lat.rank, 2),
                coeffs={t: c for t, c in zip(targets, row) if c},
                provenance=f"curated:{lat.name}",
            )
            for lat, row in zip(lats, counts)
        ]
    return "computed", [f"series: {len(series)}", f"rank: {theta.linear_independence_rank(series)}"]


def job_hyp_predicate(args, lats):
    la, lb = lats
    payload = [
        f"rank: {la.rank} {lb.rank}",
        f"min_norm: {lattices.minimum_norm(la)} {lattices.minimum_norm(lb)}",
        f"predicate: {str(lattices.stable_eq_hyp_predicate(la, lb)).lower()}",
    ]
    return "computed", payload


def job_list(args, lats):
    """The registry: name, rank, minimum, root count and root system."""
    payload = []
    for lat in lats:
        r2 = enumeration.shell_count(lat, 2)
        label = lattices.root_system(lat).label if r2 else "(no roots)"
        payload.append(
            f"{lat.name}: rank={lat.rank} mu={lattices.minimum_norm(lat)} r2={r2} roots={label}"
        )
    return "computed", payload


class Job(NamedTuple):
    run: Callable[[argparse.Namespace, list[Lattice]], tuple[str, list[str]]]
    lattices: str  # a key of SOURCES
    options: tuple[str, ...] = ()  # read besides those that name the lattices


JOBS = {
    "validate": Job(job_validate, "lattice"),
    "shells": Job(job_shells, "lattice", ("norm_bound",)),
    "theta": Job(job_theta, "lattice", ("genus", "trace_bound")),
    "diff": Job(job_diff, "pair", ("genus", "trace_bound")),
    "product": Job(job_product, "pair", ("genus", "trace_bound")),
    "restrict": Job(job_restrict, "lattice", ("genus", "trace_bound")),
    "venkov": Job(job_venkov, "lattice-or-rank24", ("norm_bound",)),
    "heat": Job(job_heat, "lattice", ("genus", "trace_bound")),
    "witt": Job(job_witt, "witt", ("max_genus", "trace_bound")),
    "schottky": Job(job_schottky, "witt", ("trace_bound",)),
    "a4-separation": Job(job_a4_separation, "pair", ("norm_bound",)),
    "k-identity": Job(job_k_identity, "pair", ("tset",)),
    "independence": Job(job_independence, "lattices", ("genus", "trace_bound")),
    "hyp-predicate": Job(job_hyp_predicate, "pair"),
    "list": Job(job_list, "registry"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """An argument the parser rejects is an input error (exit 3)."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    p.add_argument("--out", help="write the report to this file")
    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    job = JOBS[args.kind]
    names, resolve = SOURCES[job.lattices]
    # Every option given besides the kind and the output path shapes the result.
    given = {opt: v for opt, v in vars(args).items() if v is not None and opt not in ("kind", "out")}
    t0 = time.perf_counter()
    try:
        for opt, v in given.items():
            flag = "--" + opt.replace("_", "-")
            if opt not in names + job.options:
                raise InputError(f"{args.kind} does not read {flag}")
            if isinstance(v, int) and v < 0:
                raise InputError(f"{flag} must be nonnegative")
        lats = resolve(args)
        status, payload = job.run(args, lats)
    except (InputError, LatticeError, NotPositiveDefiniteError,
            enumeration.RepresentationDomainError, theta.SeriesError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    params = {opt.replace("_", "-"): v for opt, v in given.items()}
    report = Report(args.kind, params, {lat.name: lat.fingerprint for lat in lats}, status, payload)
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
        f"[thetalab] {args.kind}: {time.perf_counter() - t0:.3f}s  cache "
        f"mem={stats['memory_hits']} disk={stats['disk_hits']} "
        f"miss={stats['misses']} writes={stats['writes']} corrupt={stats['corrupt']}",
        file=sys.stderr,
    )
    return report.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
