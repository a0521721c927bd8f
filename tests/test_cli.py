"""Command-line interface: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pgcodes import bounds, cli, p2_fixtures, szonyi_example, weight
from pgcodes.cli import main
from pgcodes.minimality import random_combination


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _error_report(capsys, path, argv=("--decompose",)):
    """The error of the report that analyze emits for a spec it cannot
    build: exit 1, nothing on stderr, and only `error` and `meta`, whose
    digest is that of the file's bytes and whose regime flags are empty."""
    rc, out = _run(capsys, ["analyze", str(path), *argv])
    assert rc == 1
    rep = json.loads(out)
    assert set(rep) == {"error", "meta"}
    assert rep["meta"]["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert rep["meta"]["regime_flags"] == []
    return rep["error"]


def test_geom_info_values(capsys):
    rc, out = _run(capsys, ["geom-info", "3", "2", "6"])
    assert rc == 0
    rep = json.loads(out)
    assert [3, 12483] in rep["W"]
    assert [1, 62] in rep["U"]
    assert [3, 266305] in rep["theta"]
    assert rep["meta"]["regime_flags"] == []


def test_geom_info_q125(capsys):
    rc, out = _run(capsys, ["geom-info", "2", "5", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert [2, 1260] in rep["W"]


def test_geom_info_h1_flags(capsys):
    rc, out = _run(capsys, ["geom-info", "2", "5", "1"])
    assert rc == 2
    rep = json.loads(out)
    assert rep["delta"] is None and rep["W"] is None
    assert "h=1" in rep["meta"]["regime_flags"]
    rc2, _ = _run(capsys, ["geom-info", "2", "5", "1", "--no-regime-exit"])
    assert rc2 == 0


@pytest.mark.parametrize("argv,meta", [
    (["geom-info", "2", "4", "3"],
     {"input_sha256": hashlib.sha256(b"geom-info:2:4:3").hexdigest(),
      "regime_flags": [], "version": "0.1.0"}),
    (["fixture", "szonyi", "--p", "4"], {"fixture": "szonyi", "version": "0.1.0"}),
])
def test_refused_parameters_give_an_error_report(capsys, argv, meta):
    """geom-info and fixture refuse p = 4 as analyze refuses a spec: a report
    of only `error` and `meta`, exit 1 and nothing on stderr."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": "p = 4 is not prime", "meta": meta}


def test_geom_info_bad_params(capsys):
    assert main(["geom-info", "2", "6", "1"]) == 1


def test_geom_info_table_too_long_to_print(capsys):
    """theta(1300) of GF(4093) has about 4700 digits, more than an int may
    print: the table is refused with an error report and exit 1."""
    assert main(["geom-info", "1300", "4093", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert set(rep) == {"error", "meta"}
    assert "digits" in rep["error"]
    assert rep["meta"] == {"input_sha256": hashlib.sha256(b"geom-info:1300:4093:1").hexdigest(),
                           "regime_flags": [], "version": "0.1.0"}


def test_geom_info_refuses_long_table_before_building_it(capsys, monkeypatch):
    """theta(10000) of GF(4) cannot print, so no entry of U is built: the
    error report is the one serialising theta(10000) raises."""
    def unreachable(*args):
        raise AssertionError("a table entry was built")
    monkeypatch.setattr(cli.bounds, "thick_bound_U", unreachable)
    with pytest.raises(ValueError) as refused:
        json.dumps(cli.bounds.theta(10000, 4))
    rc, out = _run(capsys, ["geom-info", "10000", "2", "2"])
    assert rc == 1
    assert json.loads(out) == {
        "error": str(refused.value),
        "meta": {"input_sha256": hashlib.sha256(b"geom-info:10000:2:2").hexdigest(),
                 "regime_flags": [], "version": "0.1.0"}}


def test_geom_info_refuses_from_bit_lengths_before_any_power(capsys, monkeypatch):
    """A table whose q^n has at least 4 * limit bits by the bit lengths of
    n, p and h is refused before q or any theta is computed, with the
    report that serialising theta(n) gives."""
    with pytest.raises(ValueError) as refused:
        str(cli.bounds.theta(10000, 4))

    def unreachable(*args):
        raise AssertionError("a power was built")
    monkeypatch.setattr(cli.BoundContext, "q", property(unreachable))
    monkeypatch.setattr(cli.bounds, "theta", unreachable)
    for argv in (["50000000", "2", "2"], ["100000", "3", "100"],
                 ["2", "3", "1000000"], ["2", "3", "10000000"]):
        rc, out = _run(capsys, ["geom-info", *argv])
        assert rc == 1
        key = ":".join(["geom-info", *argv]).encode()
        assert json.loads(out) == {
            "error": str(refused.value),
            "meta": {"input_sha256": hashlib.sha256(key).hexdigest(),
                     "regime_flags": [], "version": "0.1.0"}}


def test_geom_info_large_prime_p(capsys):
    """p = 2^61 - 1 is proved prime at once and its table printed; the
    prime 2^89 - 1 lies above the exact range of the primality test and
    is refused with an error report naming that range."""
    rc, out = _run(capsys, ["geom-info", "3", str(2 ** 61 - 1), "2"])
    assert rc in (0, 2)
    assert json.loads(out)["q"] == (2 ** 61 - 1) ** 2
    rc, out = _run(capsys, ["geom-info", "2", str(2 ** 89 - 1), "2"])
    assert rc == 1
    rep = json.loads(out)
    assert set(rep) == {"error", "meta"}
    assert "3317044064679887385961981" in rep["error"]


def test_analyze_two_line_difference(tmp_path, capsys):
    spec = {"n": 2, "p": 2, "h": 5, "terms": [[0, 1], [5, 1]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path), "--decompose", "--minimality"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["weight"] == 64  # 2 * q
    assert len(rep["decomposition"]["terms"]) == 2
    assert rep["minimality"]["verdict"] == "Minimal"


def test_analyze_difference_pg3_64(tmp_path, capsys):
    spec = {"n": 3, "p": 2, "h": 6, "terms": [[7, 1], [9000, 1]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path), "--decompose"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["weight"] == 8192
    assert len(rep["decomposition"]["terms"]) == 2


def test_analyze_h1_spec_flags_and_exit_code(tmp_path, capsys):
    """A spec over a prime field analyses with the h = 1 regime flags, which
    no weight changes, and exit 2."""
    spec = {"n": 2, "p": 5, "h": 1, "terms": [[0, 1]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    rep = json.loads(out)
    assert rep["weight"] == 6
    assert rep["meta"]["regime_flags"] == ["h=1", "q<=27"]


def test_analyze_dual_coordinate_terms(tmp_path, capsys):
    spec = {"n": 2, "p": 2, "h": 5, "terms": [[[1, 0, 0], 1]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path)])
    assert rc == 0
    assert json.loads(out)["weight"] == 33


NON_INTEGER_TERMS = [[[0, 1.7]], [[3.9, 1]], [[[0, 1.5, 0], 1]], [[True, 1]], [["3", 1]]]


@pytest.mark.parametrize("terms", [[[99999999, 1]], [[-3, 1]], [[[0, -1, 5], 1]],
                                   *NON_INTEGER_TERMS, [5], [[0, 1, 2]]])
def test_analyze_rejects_out_of_range_terms(tmp_path, capsys, terms):
    """Bad or non-integer indices, coordinates and coefficients, and malformed
    terms, end in an error and exit 1, not a traceback, a truncated value or
    a silently wrapped hyperplane; 1.7, 3.9, 1.5, true and "3" are named as
    non-integers."""
    spec = {"n": 2, "p": 5, "h": 3, "terms": terms}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    error = _error_report(capsys, path, ["--decompose", "--minimality"])
    assert error
    if terms in NON_INTEGER_TERMS:
        assert "must be an integer" in error


MALFORMED_SPECS = [
    ({"n": 2, "p": 5, "h": True, "terms": [[0, 1]]}, "h must be an integer"),
    ({"n": 2.0, "p": 5, "h": 3, "terms": [[0, 1]]}, "n must be an integer"),
    ({"n": 2, "p": "5", "h": 3, "terms": [[0, 1]]}, "p must be an integer"),
    ({"n": 2, "p": 5, "h": 3, "terms": 5}, "terms must be a list"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": 2.5, "seed": 1}, "j must be"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": 2, "seed": False}, "seed must be"),
    ([[0, 1]], "JSON object"),
    ({"n": 100000, "p": 2, "h": 1, "terms": []}, "cap"),
    ({"p": 5, "h": 3, "terms": [[0, 1]]}, "no 'n' key"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "seed": 1}, "no 'j' key"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": -1, "seed": 1}, "j must lie in [0, 15751]"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": 99999, "seed": 1}, "j must lie in [0, 15751]"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": 2, "seed": -4}, "seed must be non-negative"),
    ({"n": 2, "p": 5, "h": 3, "fixture": "nope"}, "unknown fixture 'nope'"),
]


@pytest.mark.parametrize("spec,needle", MALFORMED_SPECS,
                         ids=[f"spec{i}" for i in range(len(MALFORMED_SPECS))])
def test_analyze_rejects_malformed_specs(tmp_path, capsys, spec, needle):
    """A spec that is not an object, whose n, p, h, terms, j or seed is
    missing or not of the expected type, whose fixture has no builder, or
    whose space exceeds the point cap, ends in an error naming the fault
    and exit 1."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert needle in _error_report(capsys, path)


UNBUILDABLE_SPECS = [
    (b'{"n": 2, "p": 5, "h": 3, "terms": [[0, 1]', "Expecting"),
    (b'{"n": 2, "p": 5, "h": 3, "terms": [], "x": "\xff"}', "can't decode byte 0xff"),
    (b"[" * 100_000, "recursion"),
    (json.dumps({"n": 2, "p": 4, "h": 1, "terms": [[0, 1]]}).encode(), "p = 4 is not prime"),
    (json.dumps({"n": 2, "p": 5, "h": 3, "terms": [[15751, 1]]}).encode(),
     "hyperplane index 15751 out of range [0, 15751)"),
    (json.dumps({"n": 2, "p": 5, "h": 3, "terms": [[0, 1], [2, 0.5]]}).encode(),
     "a coefficient must be an integer, got 0.5"),
    (json.dumps({"n": 2, "p": 5, "h": 3, "terms": [[0, 1], [[0, 0, 0], 2]]}).encode(),
     "term 1 has the zero dual vector [0, 0, 0]"),
]


@pytest.mark.parametrize("raw,needle", UNBUILDABLE_SPECS,
                         ids=["invalid-json", "non-utf8", "nested-too-deep", "p-not-prime",
                              "index-out-of-range", "non-integer-term", "zero-dual-vector"])
def test_analyze_reports_unbuildable_specs(tmp_path, capsys, raw, needle):
    """Bytes that are not UTF-8 or JSON, and specs whose field, index, term
    or dual vector is refused, give an error report, not a bare stderr line."""
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    assert needle in _error_report(capsys, path)


def test_field_above_max_q_is_an_error(tmp_path, capsys):
    """GF(2^13) is refused with an error even under a point cap that admits
    PG(2, 8192); geom-info needs no field and still answers."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "h": 13, "terms": []}))
    assert "4096" in _error_report(capsys, path, ["--cap-points", "100000000"])
    rc, out = _run(capsys, ["geom-info", "2", "2", "13"])
    assert rc == 0
    assert json.loads(out)["q"] == 8192


def test_threads_below_one_is_an_error(tmp_path, capsys):
    spec = {"n": 3, "p": 2, "h": 2, "terms": [[0, 1]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", str(path), "--spectrum", "--threads", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["geom-info", "2", "5", "x"],
    ["verify", "bounds", "--threads", "0"],
    ["geom-info", "2", "5", "3", "--cap-oracle", "7"],
    ["geom-info", "2", "5", "3", "--threads", "3"],
    ["verify", "bounds", "--out", "report.json"],
    ["fixture", "szonyi", "--no-regime-exit"],
    ["verify", "secants", "--trials", "-3"],
    ["verify", "secants", "--trials", "0"],
    ["verify", "minimality", "--trials", "-1"],
])
def test_usage_errors_exit_one(tmp_path, monkeypatch, capsys, argv):
    """A usage error, an option the subcommand does not take among them,
    exits 1 with `error:` on stderr, not argparse's 2, which means
    out-of-regime warnings; it prints no report and writes no file."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_each_subcommand_takes_only_the_options_it_reads():
    """Pinned by introspection, so no option is declared for a subcommand
    that would accept it and then ignore it."""
    expected = {
        "geom-info": {"--out", "--no-regime-exit"},
        "analyze": {"--decompose", "--spectrum", "--minimality", "--oracle", "--threads",
                    "--cap-points", "--cap-lines", "--cap-oracle", "--out",
                    "--no-regime-exit"},
        "verify": {"--seed", "--trials", "--n", "--p", "--h", "--threads", "--cap-points",
                   "--cap-lines", "--cap-oracle"},
        "fixture": {"--n", "--p", "--h", "--j", "--seed", "--cap-points", "--out"},
    }
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert options == expected


def test_analyze_empty_terms_degenerate(tmp_path, capsys):
    spec = {"n": 2, "p": 2, "h": 5, "terms": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path), "--minimality"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["weight"] == 0
    assert rep["minimality"]["verdict"] == "Minimal"
    assert "degenerate-zero-codeword" in rep["minimality"]["regime_flags"]


def test_analyze_seven_line_fixture_with_oracle(tmp_path, capsys):
    spec = {"n": 2, "p": 5, "h": 3, "fixture": "szonyi"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path), "--decompose",
                            "--minimality", "--oracle", "--spectrum"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["weight"] == 861
    assert rep["minimality"]["verdict"] == "Undetermined"
    assert rep["minimality"]["oracle"]["minimal"] is True
    assert rep["thin_thick_lines"]["neither"] == 0


@pytest.mark.parametrize("argv,error", [
    (["--decompose", "--spectrum", "--cap-lines", "1"], "line count 15751 exceeds the cap of 1"),
    (["--decompose", "--minimality", "--oracle", "--cap-oracle", "1"],
     "p^m = 78125 exceeds the oracle cap 1"),
], ids=["spectrum-cap", "oracle-cap"])
def test_analyze_keeps_the_report_before_a_failed_stage(tmp_path, capsys, argv, error):
    """A stage refused after the codeword is built exits 1 with the keys
    computed before it, the decomposition among them, and an `error`."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 2, "p": 5, "h": 3, "fixture": "szonyi"}))
    rc, out = _run(capsys, ["analyze", str(path), *argv])
    assert rc == 1
    rep = json.loads(out)
    assert set(rep) == {"space", "weight", "support_size", "meta", "fixture",
                        "decomposition", "error"}
    assert rep["error"] == error
    assert len(rep["decomposition"]["terms"]) == 7


def test_analyze_spectrum_threads_agree(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 2, "p": 5, "h": 3, "fixture": "szonyi"}))
    reports = [tmp_path / f"threads{t}.json" for t in (1, 2)]
    for t, out in zip((1, 2), reports):
        assert main(["analyze", str(path), "--spectrum", "--threads", str(t),
                     "--out", str(out)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_analyze_out_of_regime_exit_code(tmp_path, capsys):
    spec = {"n": 2, "p": 2, "h": 5, "fixture": "no-hole-line"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    rc2, _ = _run(capsys, ["analyze", str(path), "--no-regime-exit"])
    assert rc2 == 0


def test_analyze_reports_are_byte_identical(tmp_path):
    spec = {"n": 2, "p": 5, "h": 3, "fixture": "random-j", "j": 4, "seed": 9}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", str(path), "--decompose", "--minimality",
                 "--oracle", "--out", str(out1)]) == 0
    assert main(["analyze", str(path), "--decompose", "--minimality",
                 "--oracle", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fixture_roundtrip_through_analyze(tmp_path, capsys):
    path = tmp_path / "pencil.json"
    rc, _ = _run(capsys, ["fixture", "pencil", "--n", "2", "--p", "2",
                          "--h", "5", "--out", str(path)])
    assert rc == 0
    emitted = json.loads(path.read_text())
    assert emitted["meta"]["fixture"] == "pencil"
    assert len(emitted["terms"]) == 3
    assert all(isinstance(t[0], list) for t in emitted["terms"])
    rc2, out = _run(capsys, ["analyze", str(path)])
    assert rc2 == 0
    assert json.loads(out)["weight"] == 97


@pytest.mark.parametrize("argv,build,m", [
    (["szonyi", "--p", "5", "--h", "1"], szonyi_example, 7),
    (["random-j", "--p", "2", "--h", "5", "--j", "12", "--seed", "0"],
     lambda sp: random_combination(sp, 12, np.random.default_rng(0)), 12),
    (["no-hole-line", "--p", "2", "--h", "2"], lambda sp: p2_fixtures(sp, "no-hole-line"), 5),
], ids=["szonyi-prime-field", "random-j-above-W", "no-hole-line-q4"])
def test_fixture_emits_its_defining_terms(tmp_path, capsys, spaces, argv, build, m):
    """`fixture` emits the terms its builder combined, also where peeling
    the codeword fails (the first two) or finds other terms (the third);
    `analyze` reads the expanded spec back to the fixture's weight."""
    path = tmp_path / "fixture.json"
    assert main(["fixture", *argv, "--n", "2", "--out", str(path)]) == 0
    emitted = json.loads(path.read_text())
    sp = spaces(2, emitted["p"], emitted["h"])
    cw, d = build(sp)[:2]
    assert len(d.terms) == m
    assert emitted["terms"] == [[sp.hyperplane_table[h].tolist(), c] for h, c in d.terms.items()]
    rc, out = _run(capsys, ["analyze", str(path)])
    assert rc in (0, 2)
    assert json.loads(out)["weight"] == weight(cw)


def test_verify_suites_pass(capsys):
    rc, out = _run(capsys, ["verify", "bounds"])
    assert rc == 0
    assert "PASS bounds:prop-thick-lower-bound" in out
    rc2, out2 = _run(capsys, ["verify", "roundtrip", "--n", "2", "--p", "2",
                              "--h", "5", "--trials", "5", "--seed", "3"])
    assert rc2 == 0


def test_verify_secants_checks_the_term_spectrum_against_the_point_scan(capsys, monkeypatch):
    """Each trial's spectrum, taken from its terms, meets the point scan of
    a copy built from its values.  Passing, the suite prints its one PASS
    line and OK; a term spectrum that is off by one line fails it."""
    argv = ["verify", "secants", "--trials", "4"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("PASS secants:secant-gap-and-dichotomy [")
    assert lines[1] == "OK"
    real = bounds._term_counts

    def off_by_one(c):
        counts = real(c)
        if counts is not None:
            counts[1] += 1
        return counts

    monkeypatch.setattr(bounds, "_term_counts", off_by_one)
    rc, out = _run(capsys, argv)
    assert rc == 1
    assert out.splitlines()[0].endswith("(term spectrum differs from the point scan)")


def test_verify_checks_hold_under_python_O():
    """`python -O` strips `assert` statements, but not the checks of the
    verify suites: with every term spectrum off by one line, `verify
    secants` still prints its FAIL line and exits 1."""
    script = textwrap.dedent("""
        import sys
        from pgcodes import bounds, cli

        real = bounds._term_counts

        def off_by_one(c):
            counts = real(c)
            if counts is not None:
                counts[1] += 1
            return counts

        bounds._term_counts = off_by_one
        sys.exit(cli.main(["verify", "secants", "--trials", "5", "--seed", "0"]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert lines[0].startswith("FAIL secants:secant-gap-and-dichotomy [")
    assert lines[0].endswith("(term spectrum differs from the point scan)")
    assert lines[1:] == ["FAILED"]


def test_missing_spec_file_errors(tmp_path, capsys):
    """A spec path that is missing or names a directory gives a report of
    only `error` and `meta`, with exit 1 and nothing on stderr; no bytes
    were read, so the digest is null."""
    for path, needle in ((tmp_path / "missing.json", "No such file"),
                         (tmp_path, "Is a directory")):
        assert main(["analyze", str(path), "--decompose"]) == 1
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert err == "" and set(rep) == {"error", "meta"} and needle in rep["error"]
        assert rep["meta"] == {"version": cli.__version__, "input_sha256": None,
                               "regime_flags": []}


def test_verify_reports_an_error_in_a_check_and_keeps_going(capsys, monkeypatch):
    """A check that raises ValueError fails with its type and message, and
    the checks after it still run."""
    def broken(args):
        def raises():
            raise ValueError("bad table")
        return [("raises", raises), ("passes", lambda: None)]

    monkeypatch.setattr(cli, "_suite_bounds", broken)
    rc, out = _run(capsys, ["verify", "all", "--trials", "1"])
    assert rc == 1
    lines = out.splitlines()
    assert any(ln.startswith("FAIL bounds:raises") and ln.endswith("(ValueError: bad table)")
               for ln in lines)
    assert any(ln.startswith("PASS bounds:passes") for ln in lines)
    assert any(ln.startswith("PASS minimality:char2-fixtures") for ln in lines)
    assert lines[-1] == "FAILED"


def test_verify_reports_a_failed_assertion_and_keeps_going(capsys, monkeypatch):
    """A check whose assertion fails prints `FAIL name [time] (message)`
    with no traceback, and the checks after it still run."""
    def broken(args):
        def fails():
            raise AssertionError("7-secant in gap")
        return [("fails", fails), ("passes", lambda: None)]

    monkeypatch.setattr(cli, "_suite_bounds", broken)
    assert main(["verify", "bounds"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("FAIL bounds:fails [") and lines[0].endswith("s] (7-secant in gap)")
    assert lines[1].startswith("PASS bounds:passes")
    assert lines[2] == "FAILED"
