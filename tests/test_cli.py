import json
import subprocess
import sys

import pytest

from thetalab.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    JOBS,
    build_parser,
    load_spec_file,
    load_tset,
    run,
)
from thetalab.niemeier import BUILTIN_NAMES
from thetalab.theta import CURATED_GENUS4, parse_series


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_e8_passes(capsys):
    code, out = run_capture(capsys, ["validate", "--lattice", "E8"])
    assert code == EXIT_PASS
    assert "status: pass" in out
    assert "det: 1" in out and "root_count: 240" in out and "root_system: E8" in out


def test_validate_failing_gram(tmp_path, capsys):
    spec = tmp_path / "zz.json"
    spec.write_text(json.dumps({"name": "2Z^2", "gram": [[2, 0], [0, 2]]}))
    code, out = run_capture(capsys, ["validate", "--spec", str(spec)])
    assert code == EXIT_FAIL
    assert "det: 4" in out


def test_unknown_lattice_is_input_error(capsys):
    assert run(["validate", "--lattice", "Leech"]) == EXIT_INPUT


def test_missing_lattice_is_input_error(capsys):
    assert run(["validate"]) == EXIT_INPUT


def test_spec_file_gram_components_dplus(tmp_path, capsys):
    gram = tmp_path / "a1.json"
    gram.write_text(json.dumps({"name": "A1A1", "gram": [[2, 0], [0, 2]]}))
    lat = load_spec_file(str(gram))
    assert lat.rank == 2

    comp = tmp_path / "e8x3.json"
    comp.write_text(
        json.dumps({"name": "E8^3", "components": [["E", 8], ["E", 8], ["E", 8]], "glue_words": []})
    )
    lat = load_spec_file(str(comp))
    assert lat.rank == 24

    dplus = tmp_path / "d16.json"
    dplus.write_text(json.dumps({"name": "D16+", "construction": "D_plus", "n": 16}))
    lat = load_spec_file(str(dplus))
    assert lat.rank == 16


def test_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(Exception):
        load_spec_file(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"name": "x"}))
    with pytest.raises(Exception):
        load_spec_file(str(empty))


def test_shells_job(capsys):
    code, out = run_capture(capsys, ["shells", "--lattice", "E8", "--norm-bound", "4"])
    assert code == EXIT_PASS
    assert "0 1" in out and "2 240" in out and "4 2160" in out


def test_theta_job_exports_parseable_series(capsys):
    code, out = run_capture(
        capsys, ["theta", "--lattice", "E8", "--genus", "1", "--trace-bound", "4"]
    )
    assert code == EXIT_PASS
    body = out[out.index("# thetalab-series 1") :]
    series = parse_series(body)
    flat = {t.key(): c for t, c in series.coeffs.items()}
    assert flat == {"1|0": 1, "1|2": 240, "1|4": 2160}


def test_diff_job_reports_zero(capsys):
    code, out = run_capture(
        capsys,
        ["diff", "--pair", "E8+E8:D16+", "--genus", "1", "--trace-bound", "6"],
    )
    assert code == EXIT_PASS
    assert "is_zero: true" in out


def test_product_job(capsys):
    code, out = run_capture(
        capsys,
        ["product", "--pair", "E8:E8", "--genus", "1", "--trace-bound", "4"],
    )
    assert code == EXIT_PASS
    assert "61920" in out


def test_restrict_job(capsys):
    code, out = run_capture(
        capsys, ["restrict", "--lattice", "E8", "--genus", "2", "--trace-bound", "4"]
    )
    assert code == EXIT_PASS
    assert "equal: true" in out


def test_hyp_predicate_values(capsys):
    code, out = run_capture(capsys, ["hyp-predicate", "--pair", "E8+E8:D16+"])
    assert code == EXIT_PASS
    assert "predicate: true" in out
    code, out = run_capture(capsys, ["hyp-predicate", "--pair", "E8D16:E8^3"])
    assert code == EXIT_PASS  # computed, not a failure
    assert "predicate: false" in out


def test_a4_separation_fails_on_identical_pair(capsys):
    code, out = run_capture(
        capsys, ["a4-separation", "--pair", "E8^3:E8^3", "--norm-bound", "4"]
    )
    assert code == EXIT_FAIL
    assert "separated: false" in out


def test_k_identity_zero_tset_is_input_error(tmp_path, capsys):
    tset = tmp_path / "tset.json"
    tset.write_text(json.dumps([[0] * 10]))
    code = run(["k-identity", "--pair", "E8D16:E8^3", "--tset", str(tset)])
    assert code == EXIT_INPUT


def test_load_tset_default_and_file(tmp_path):
    assert load_tset(None) == CURATED_GENUS4
    f = tmp_path / "t.json"
    f.write_text(json.dumps([[2], [2, 1, 2]]))
    targets = load_tset(str(f))
    assert [t.genus for t in targets] == [1, 2]
    with pytest.raises(Exception):
        load_tset(str(tmp_path / "missing.json"))


def test_witt_small_is_deterministic(capsys):
    argv = ["witt", "--max-genus", "1", "--trace-bound", "6"]
    code1, out1 = run_capture(capsys, argv)
    code2, out2 = run_capture(capsys, argv)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2


def test_zero_bound_is_not_replaced_by_the_default(capsys):
    code, out = run_capture(capsys, ["theta", "--lattice", "E8", "--trace-bound", "0"])
    assert code == EXIT_PASS
    assert "trace_bound: 0" in out and out.endswith("\n0 = 1\n")
    code, out = run_capture(capsys, ["shells", "--lattice", "E8", "--norm-bound", "0"])
    assert code == EXIT_PASS and out.endswith("payload:\n0 1\n")
    # With no genus to check, witt would pass vacuously.
    assert run(["witt", "--max-genus", "0"]) == EXIT_INPUT
    assert "max-genus" in capsys.readouterr().err


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = run(["validate", "--lattice", "E8", "--out", str(out_path)])
    assert code == EXIT_PASS
    text = out_path.read_text()
    assert text.startswith("# thetalab-report 1")
    assert "lattice: E8 " in text


def test_list_contains_registry(capsys):
    code, out = run_capture(capsys, ["list"])
    assert code == EXIT_PASS
    for name in ("E8:", "E8+E8:", "D16+:", "A5^4D4:", "E8^3:"):
        assert name in out
    for r2 in (144, 240, 288, 432, 720):
        assert f"r2={r2}" in out


def test_parser_rejects_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "--lattice", "E8", "--jobs", "1"])


# One cheap invocation of every kind: (argv, exit code, names on the `lattice:` lines).
EVERY_KIND = [
    (["validate", "--lattice", "E8"], EXIT_PASS, ["E8"]),
    (["shells", "--lattice", "E8", "--norm-bound", "2"], EXIT_PASS, ["E8"]),
    (["theta", "--lattice", "E8", "--trace-bound", "2"], EXIT_PASS, ["E8"]),
    (["diff", "--pair", "E8+E8:D16+", "--trace-bound", "2"], EXIT_PASS, ["D16+", "E8+E8"]),
    (["product", "--pair", "E8:E8", "--trace-bound", "2"], EXIT_PASS, ["E8"]),
    (["restrict", "--lattice", "E8", "--genus", "1", "--trace-bound", "2"], EXIT_PASS, ["E8"]),
    (["venkov", "--lattice", "E8"], EXIT_PASS, ["E8"]),
    (["heat", "--lattice", "E8", "--genus", "1", "--trace-bound", "2"], EXIT_PASS, ["E8"]),
    (["witt", "--max-genus", "1", "--trace-bound", "2"], EXIT_PASS, ["D16+", "E8+E8"]),
    # No curated index of trace <= 4 separates the pair.
    (["schottky", "--trace-bound", "4"], EXIT_FAIL, ["D16+", "E8+E8"]),
    (["a4-separation", "--pair", "E8:E8", "--norm-bound", "2"], EXIT_FAIL, ["E8"]),
    # The two sides agree everywhere, so k = 0, which does not verify.
    (["k-identity", "--pair", "E8:E8"], EXIT_FAIL, ["E8"]),
    (["independence", "--lattices", "E8", "E8+E8", "--genus", "1", "--trace-bound", "2"], EXIT_PASS, ["E8", "E8+E8"]),
    (["hyp-predicate", "--pair", "E8:E8"], EXIT_PASS, ["E8"]),
    (["list"], EXIT_PASS, sorted(BUILTIN_NAMES)),
]


@pytest.mark.parametrize("argv,code,names", EVERY_KIND, ids=[argv[0] for argv, _, _ in EVERY_KIND])
def test_every_kind_runs(capsys, argv, code, names):
    assert sorted(case[0] for case, _, _ in EVERY_KIND) == sorted(JOBS)
    got, out = run_capture(capsys, argv)
    assert got == code
    lines = out.splitlines()
    assert lines[1] == f"job: {argv[0]}"
    assert [line.split()[1] for line in lines if line.startswith("lattice: ")] == names


def test_parser_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


@pytest.mark.parametrize(
    "kind,content",
    [
        ("tset", {"upper": [[2]]}),
        ("tset", ["abc"]),
        # Read as ints, these two are A4 up to sign: a valid index, so no error.
        ("tset", [[2.9, -1, 0, 0, 2, -1, 0, 2, -1, 2]]),
        ("tset", [[2, True, 0, 0, 2, -1, 0, 2, -1, 2]]),
        ("spec", {"gram": [[2, 1], [1]]}),
        ("spec", {"gram": [["2"]]}),
        ("spec", {"gram": [[2.5]]}),
        ("spec", {"components": [["Q", 3]]}),
        ("spec", {"components": [["A"]]}),
        ("spec", b"\xff\xfe not utf-8"),
        # A name is one report line: a line break would forge a "status: pass" line.
        ("spec", {"name": "A2\nstatus: pass", "gram": [[2, -1], [-1, 2]]}),
        ("spec", {"name": ["x"], "gram": [[2]]}),
        ("shells", {"gram": [[2, 3], [3, 2]]}),  # indefinite: LLL cannot reduce it
        ("out", None),  # the report's directory does not exist
        ("lattices", None),  # `--lattices` given without a name
        ("argv", ["witt", "--lattice", "E8"]),  # witt always compares E8+E8 with D16+
        ("argv", ["schottky", "--pair", "E8:E8"]),
        ("venkov", None),  # `--spec` names a missing file
    ],
    ids=[
        "tset-no-targets-key", "tset-string-entry", "tset-float", "tset-bool",
        "spec-ragged-gram", "spec-string-in-gram", "spec-float-in-gram", "spec-bad-ade-symbol",
        "spec-short-component", "spec-not-utf8", "spec-name-line-break", "spec-name-not-string",
        "spec-indefinite-gram", "out-missing-dir", "independence-no-lattices", "witt-lattice-not-read",
        "schottky-pair-not-read", "venkov-spec-missing",
    ],
)
def test_bad_input_exits_3_with_message(tmp_path, capsys, kind, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    if kind == "tset":
        argv = ["k-identity", "--pair", "E8:E8", "--tset", str(path)]
    elif kind == "out":
        argv = ["validate", "--lattice", "E8", "--out", str(tmp_path / "missing" / "report.txt")]
    elif kind == "lattices":
        argv = ["independence", "--lattices", "--genus", "1", "--trace-bound", "2"]
    elif kind == "argv":
        argv = content
    elif kind == "venkov":
        argv = ["venkov", "--spec", str(tmp_path / "missing.json")]
    else:
        argv = ["validate" if kind == "spec" else kind, "--spec", str(path)]
    assert run(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if kind == "argv":
        assert f"does not read {argv[1]}" in err


# Runs the CLI in a child of a child, so that the peak RSS read by getrusage
# is that of the CLI process alone; its address space is capped at 4 GiB, so
# a regression fails with a MemoryError instead of taking the host's memory.
_MEASURED_RUN = """
import resource, subprocess, sys, time
def cap():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
t0 = time.monotonic()
proc = subprocess.run([sys.executable, "-m", "thetalab.cli", *sys.argv[1:]], capture_output=True, text=True,
                      preexec_fn=cap)
print(proc.returncode, time.monotonic() - t0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(proc.stderr, end="")
"""


def test_oversized_fourier_jacobi_shell_exits_3_quickly():
    # The genus-2, trace-6 heat check on E8^3 reaches the degree-3 index
    # diag(6, 0, 2), whose class diag(2, 6) pairs the ~1.7e7-vector norm-6
    # shell with the 720 roots.  The shells are refused from the shell counts;
    # building that shell first took over 7 GB and minutes.
    argv = ["heat", "--lattice", "E8^3", "--genus", "2", "--trace-bound", "6"]
    proc = subprocess.run([sys.executable, "-c", _MEASURED_RUN, *argv], capture_output=True, text=True, timeout=600)
    head, _, stderr = proc.stdout.partition("\n")
    code, seconds, max_rss_kb = head.split()
    assert int(code) == EXIT_INPUT
    assert "too large" in stderr and "Traceback" not in stderr
    assert float(seconds) < 120
    assert int(max_rss_kb) < 1024 * 1024  # ru_maxrss is in KiB on Linux
