"""Command-line driver: output shapes, exit codes, env handling, determinism."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchflow.cli import FAMILIES, IDENTITIES, main

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "src" / "branchflow" / "data" / "fk_fixture.json"


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


# --- coeffs ---------------------------------------------------------------


def test_coeffs_f_order_2(capsys):
    rc, out, _ = run(["coeffs", "f", "--order", "2"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "family": "f",
        "order": 2,
        "coeffs": [
            {"index": 1, "value": "1"},
            {"index": 0, "value": "2/3"},
            {"index": -1, "value": "-1/12"},
        ],
    }


def test_coeffs_b_order_3(capsys):
    rc, out, _ = run(["coeffs", "b", "--order", "3"], capsys)
    assert rc == 0
    values = [row["value"] for row in json.loads(out)["coeffs"]]
    assert values == ["1", "1/3", "1/36"]


def test_coeffs_csv_format(capsys):
    rc, out, _ = run(["coeffs", "f", "--order", "2", "--format", "csv"], capsys)
    assert rc == 0
    assert out == "index,value\n1,1\n0,2/3\n-1,-1/12\n"


def test_coeffs_out_file(tmp_path, capsys):
    target = tmp_path / "dump.json"
    rc, out, _ = run(["coeffs", "stirling", "--order", "3", "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert [row["value"] for row in doc["coeffs"]] == ["1", "1/12", "1/288", "-139/51840"]


def test_coeffs_families_all_runnable(capsys):
    from branchflow.cli import FAMILIES

    for family in FAMILIES:
        rc, out, _ = run(["coeffs", family, "--order", "3"], capsys)
        assert rc == 0, family
        assert json.loads(out)["family"] == family


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "branchflow", "coeffs", "f", "--order", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"][0] == {"index": 1, "value": "1"}


ELAPSED = re.compile(r'"elapsed_ms": \d+|in \d+ ms')


def test_one_interpreter_answers_each_call_as_a_fresh_one():
    # the parser is built on the first call and shared by the later ones
    calls = [
        ["verify", "prop-hy", "--order", "6"],
        ["coeffs", "e", "--order", "5", "--format", "csv"],
        ["coeffs", "f", "--order", "0"],
        ["verify", "prop-hy", "--order", "6"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from branchflow.cli import build_parser, main\n"
        "assert build_parser.cache_info().currsize == 0\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            rc = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            rc = exc.code\n"
        "    runs.append([rc, out.getvalue(), err.getvalue()])\n"
        "assert build_parser.cache_info().misses == 1\n"
        "print(json.dumps(runs))\n"
    )
    one = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)], capture_output=True, text=True
    )
    assert one.returncode == 0, one.stderr
    shared = json.loads(one.stdout)
    for argv, (rc, out, err) in zip(calls, shared, strict=True):
        fresh = subprocess.run(
            [sys.executable, "-m", "branchflow", *argv], capture_output=True, text=True
        )
        assert rc == fresh.returncode, argv
        assert ELAPSED.sub("", out) == ELAPSED.sub("", fresh.stdout), argv
        assert ELAPSED.sub("", err) == ELAPSED.sub("", fresh.stderr), argv
    assert [rc for rc, _, _ in shared] == [0, 0, 2, 0]


# --- usage errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "b", "--order", "0"],
        ["verify", "iden", "--order", "-3"],
        ["coeffs", "f", "--order", "201"],
        ["coeffs", "f", "--order", "2.5"],
        ["coeffs", "nosuchfamily", "--order", "3"],
        ["verify", "nosuchidentity", "--order", "3"],
        ["verify", "grading", "--range", "abc"],
        ["verify", "grading", "--range", "3..1"],
        ["verify", "grading", "--weight", "17"],
        ["verify", "grading", "--weight", "0"],
        ["verify", "grading", "--range=-17..0"],
        ["verify", "grading", "--range", "0..17"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_env_default_order(monkeypatch, capsys):
    monkeypatch.setenv("BRANCHFLOW_DEFAULT_ORDER", "3")
    rc, out, _ = run(["coeffs", "b"], capsys)
    assert rc == 0
    assert len(json.loads(out)["coeffs"]) == 3


def test_env_malformed_order_rejected(monkeypatch, capsys):
    monkeypatch.setenv("BRANCHFLOW_DEFAULT_ORDER", "many")
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "b"])
    assert exc.value.code == 2
    # explicit --order wins, the env value is never consulted
    rc, _, _ = run(["coeffs", "b", "--order", "2"], capsys)
    assert rc == 0


# --- verify -------------------------------------------------------------------


def test_verify_report_shape(capsys):
    rc, out, err = run(["verify", "v-ode", "--order", "8"], capsys)
    assert rc == 0
    (doc,) = json_lines(out)
    assert set(doc) == {"identity", "order", "status", "first_mismatch", "elapsed_ms"}
    assert doc["identity"] == "v-ode"
    assert doc["order"] == 8
    assert doc["status"] == "PASS"
    assert doc["first_mismatch"] is None
    assert "1 PASS, 0 FAIL, 0 SKIPPED" in err


SERIES_IDENTITIES = (
    "v-ode", "karamata", "k-functional", "k-integral", "w0-reversion", "lemma-yk",
    "prop-hy", "fplus-functional", "iden", "flow-laws", "nz-bernoulli",
)


@pytest.mark.parametrize("identity", SERIES_IDENTITIES)
def test_series_identities_pass_at_low_orders(identity, capsys):
    for order in range(1, 9):
        rc, out, err = run(["verify", identity, "--order", str(order)], capsys)
        assert rc == 0, (order, err)
        assert [r["status"] for r in json_lines(out)] == ["PASS"], order


def test_verify_all_order(capsys):
    rc, out, _ = run(
        ["verify", "all", "--order", "4", "--weight", "3", "--range", "0..1"], capsys
    )
    assert rc == 0
    assert [d["identity"] for d in json_lines(out)] == [
        *SERIES_IDENTITIES,
        "virasoro-commutators(m=0,n=0)",
        "virasoro-commutators(m=0,n=1)",
        "virasoro-commutators(m=1,n=0)",
        "virasoro-commutators(m=1,n=1)",
        "heisenberg-commutators(n=1,k=0)",
        "heisenberg-commutators(n=1,k=1)",
        "grading(m=0)",
        "grading(m=1)",
        "factorization",
        "kw-constraints(m=1)",
        "kw-constraints(m=2)",
    ]


def test_internal_error_exits_3(monkeypatch, capsys):
    from branchflow import cli
    from branchflow.series import TruncationError

    def broken(order):
        raise TruncationError("window too shallow")

    monkeypatch.setattr(cli, "verify_prop_hy", broken)
    rc, out, err = run(["verify", "prop-hy", "--order", "4"], capsys)
    assert rc == 3
    assert out == ""
    assert err == "internal error: prop-hy: window too shallow\n"


def test_verify_negative_range_token(capsys):
    # the separate-token form must survive argparse's option-name heuristics
    rc, out, _ = run(
        ["verify", "grading", "--order", "5", "--weight", "4", "--range", "-2..2"],
        capsys,
    )
    assert rc == 0
    docs = json_lines(out)
    assert [d["identity"] for d in docs] == [f"grading(m={m})" for m in range(-2, 3)]
    assert all(d["status"] == "PASS" for d in docs)


def test_verify_heisenberg_skips_diagonal(capsys):
    rc, out, _ = run(
        ["verify", "heisenberg-commutators", "--order", "5", "--weight", "3",
         "--range", "-1..1"],
        capsys,
    )
    assert rc == 0
    docs = json_lines(out)
    # n = 0 is not scanned; the two n + k = 0 cells are reported as skipped
    assert len(docs) == 6
    statuses = {d["identity"]: d["status"] for d in docs}
    assert statuses["heisenberg-commutators(n=-1,k=1)"] == "SKIPPED"
    assert statuses["heisenberg-commutators(n=1,k=-1)"] == "SKIPPED"
    assert sum(1 for s in statuses.values() if s == "PASS") == 4


def test_verify_virasoro_cell(capsys):
    rc, out, _ = run(
        ["verify", "virasoro-commutators", "--order", "5", "--weight", "3",
         "--range", "0..1"],
        capsys,
    )
    assert rc == 0
    docs = json_lines(out)
    assert [d["identity"] for d in docs] == [
        "virasoro-commutators(m=0,n=0)",
        "virasoro-commutators(m=0,n=1)",
        "virasoro-commutators(m=1,n=0)",
        "virasoro-commutators(m=1,n=1)",
    ]


def test_verify_determinism(capsys):
    argv = ["verify", "kw-constraints"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0

    def scrub(out):
        docs = json_lines(out)
        for doc in docs:
            doc.pop("elapsed_ms")
        return docs

    assert scrub(out1) == scrub(out2)


def test_coeffs_determinism(capsys):
    rc1, out1, _ = run(["coeffs", "e", "--order", "6"], capsys)
    rc2, out2, _ = run(["coeffs", "e", "--order", "6"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


# SHA-256 of the stdout of the deep recurrence dumps, pinned when the branch
# tables still stored the Rationals themselves
DEEP_DUMP_SHA256 = {
    ("stirling", "json"): "47fdbda2daaa5494306b32697ae8fcdc27a582e0e54acf87bb8cdadd7f7fdd73",
    ("stirling", "csv"): "1d306ffd9b1f1131b61b4f62573f6b337f7d54bbdea0eaacf1b9a1778b962e57",
    ("b", "json"): "e8138e8617143bcec64aab4a0e29d1fa61ecf666642139858ab85467a6411234",
    ("b", "csv"): "216200f50dca2739ef5a6e552b53b836041b42ee3f359400b0f85fbde8b0e92d",
    ("c", "json"): "a8205f27e4072fb75ed8f7393f102a3eafebae4f47381689cfae1463320d095e",
    ("c", "csv"): "4e99f048355f5046bff0309da19383763b1cd1b90c4868c6e24f0dcc47e16e3e",
}


@pytest.mark.parametrize("family, fmt", sorted(DEEP_DUMP_SHA256))
def test_deep_recurrence_dumps_are_bit_identical(family, fmt, capsys):
    rc, out, _ = run(["coeffs", family, "--order", "200", "--format", fmt], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_DUMP_SHA256[family, fmt]


# --- fixture plumbing -----------------------------------------------------------


def _write_fixture(tmp_path, mutate):
    doc = json.loads(FIXTURE.read_text())
    mutate(doc)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_kw_with_explicit_fixture(tmp_path, capsys):
    path = _write_fixture(tmp_path, lambda doc: None)
    rc, out, _ = run(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    assert rc == 0
    assert [d["status"] for d in json_lines(out)] == ["PASS", "PASS"]


def test_verify_kw_corrupted_fixture_fails(tmp_path, capsys):
    def corrupt(doc):
        for rec in doc["terms"]:
            if rec["monomial"] == [3]:
                rec["coefficient"] = "1/23"

    path = _write_fixture(tmp_path, corrupt)
    rc, out, err = run(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    assert rc == 1
    docs = json_lines(out)
    assert [d["status"] for d in docs] == ["FAIL", "FAIL"]
    assert docs[0]["first_mismatch"] == {"exponent": 1, "lhs": "1/184", "rhs": "0"}
    assert docs[1]["first_mismatch"] == {"exponent": 2, "lhs": "1/368", "rhs": "0"}
    assert "FAIL kw-constraints(m=1)" in err


def test_verify_kw_fixture_with_a_repeated_monomial_is_usage_error(tmp_path, capsys):
    def repeat(doc):
        doc["terms"].append({"monomial": [3, 1, 1, 1], "coefficient": "1"})

    path = _write_fixture(tmp_path, repeat)
    rc, out, err = run(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: kw-constraints:") and "[1, 1, 1, 3]" in err


def test_verify_kw_malformed_fixture_is_usage_error(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text("{not valid json")
    rc, _, err = run(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    assert rc == 2
    assert err.startswith("error: kw-constraints:")


def test_verify_kw_missing_fixture_is_usage_error(tmp_path, capsys):
    rc, _, err = run(
        ["verify", "kw-constraints", "--fixture", str(tmp_path / "nope.json")], capsys
    )
    assert rc == 2
    assert "error: kw-constraints:" in err


# --- the input contract, as properties --------------------------------------------
#
# Whatever the arguments or the fixture, main returns or exits with 0, 1, 2 or 3,
# never with a traceback, and with 1 exactly when a FAIL was printed.


def outcome(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses bad arguments with exit 2
        rc = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert rc in (0, 1, 2, 3), (argv, rc, captured.err)
    printed_fail = any(line.startswith("FAIL ") for line in captured.err.splitlines())
    assert (rc == 1) == printed_fail, (argv, rc, captured.err)
    if argv[0] == "verify" and rc < 2:
        statuses = [doc["status"] for doc in json_lines(captured.out)]
        assert ("FAIL" in statuses) == (rc == 1)
    if rc >= 2:
        # one line names the refusal: argparse's "prog: error:", "error:" or "internal error:"
        assert sum("error:" in line for line in captured.err.splitlines()) == 1
    return rc, captured


# capsys and tmp_path are read afresh for every example
FIXTURES = [HealthCheck.function_scoped_fixture]
json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# well-formed parts are drawn most often, so most documents carry one fault
good_terms = st.fixed_dictionaries({
    "monomial": st.lists(st.integers(1, 6), max_size=4),
    "coefficient": st.integers(-5, 5) | st.sampled_from(["1/2", "-7/3", "1/24"]),
})
monomials = (
    st.lists(st.integers(-1, 8), max_size=4) | st.lists(json_scalars, max_size=2) | json_values
)
coefficients = (
    st.integers(-5, 5)
    | st.sampled_from(["1/2", "-7/3", "1/0", "0", "abc", "1e5", "1.5", "", "9" * 5000])
    | json_values
)
terms = st.one_of(
    good_terms,
    st.fixed_dictionaries({"monomial": monomials, "coefficient": coefficients}),
    json_values,
)
bounds = st.one_of(st.integers(5, 14), st.integers(5, 14), st.integers(-2, 4), json_values)
fixture_docs = st.one_of(
    st.fixed_dictionaries({
        "weight_bound": st.integers(5, 14),
        "terms": st.lists(good_terms, unique_by=lambda t: tuple(sorted(t["monomial"]))),
    }),
    st.fixed_dictionaries({"weight_bound": bounds, "terms": st.lists(terms, max_size=5)}),
    st.fixed_dictionaries({"weight_bound": bounds, "terms": st.lists(terms, max_size=5)}),
    st.fixed_dictionaries({"weight_bound": bounds, "terms": json_values}),
    json_values,
)


@given(fixture_docs)
@settings(max_examples=100, deadline=None, suppress_health_check=FIXTURES)
def test_any_fixture_document_ends_in_reports_or_a_refusal(tmp_path, capsys, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    rc, captured = outcome(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    if rc == 2:
        assert captured.err.startswith("error: kw-constraints: ") and captured.out == ""
    assert rc != 3, captured.err


def _one_term(**term):
    return {"weight_bound": 18, "terms": [{"monomial": [3], "coefficient": "1/24", **term}]}


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"weight_bound": 18, "terms": 5},
        _one_term(monomial="abc"),
        _one_term(coefficient="1/0"),
        _one_term(monomial=[1.5]),  # loaded as a q-index until refused
        _one_term(coefficient=0.1),  # read as 3602879701896397/36028797018963968
        _one_term(monomial=[3, 10**9]),  # would grow the prime table through P_(2 10^9)
    ],
    ids=[
        "list", "terms-int", "monomial-str", "zero-denominator", "float-index", "float-coeff",
        "index-past-cap",
    ],
)
def test_fixture_holes_are_usage_errors(tmp_path, capsys, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["verify", "kw-constraints", "--fixture", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: kw-constraints: ") and err.count("\n") == 1


def test_coeffs_into_a_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "x.json"
    rc, out, err = run(["coeffs", "f", "--order", "3", "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: coeffs f: ") and err.count("\n") == 1


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    from branchflow import cli

    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "scan_grading", broken)
    rc, out, err = run(["verify", "grading", "--weight", "2", "--range=0..1"], capsys)
    assert (rc, out) == (3, "")
    assert err == "internal error: grading: KeyError: 'boom'\n"


small = st.integers(1, 5).map(str)
tokens = small | small | st.integers(-3, 6).map(str) | st.sampled_from(
    ["0", "abc", "2.5", "", "1e3", "-", "201"]
)
range_ends = st.integers(-3, 3) | st.sampled_from([-17, 17, -1000, 1000])
ranges = st.tuples(range_ends, range_ends).map(lambda t: f"{t[0]}..{t[1]}") | st.sampled_from(
    ["abc", "1..", "..2", "-1...1", "0..1e1", "3..1"]
)
# scans at this size run in milliseconds; a generated --weight or --range overrides it
SMALL_SCANS = ("--weight", "2", "--range=-1..1")
verify_argv = st.tuples(
    st.sampled_from([*IDENTITIES, "all", "nosuchidentity"]),
    st.lists(
        st.sampled_from(["--order", "--weight", "--seed"]).flatmap(
            lambda flag: st.tuples(st.just(flag), tokens)
        )
        | ranges.map(lambda r: ("--range", r)),
        max_size=3,
    ),
).map(lambda t: ["verify", t[0], *SMALL_SCANS, *(x for pair in t[1] for x in pair)])
coeffs_argv = st.tuples(
    st.sampled_from([*FAMILIES, "nosuchfamily"]),
    st.lists(
        st.tuples(st.just("--order"), tokens)
        | st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])),
        max_size=3,
    ),
).map(lambda t: ["coeffs", t[0], *(x for pair in t[1] for x in pair)])


@given(verify_argv | coeffs_argv)
@settings(max_examples=100, deadline=None, suppress_health_check=FIXTURES)
def test_any_argv_ends_in_reports_or_a_refusal(monkeypatch, capsys, argv):
    # "all" and the series identities stay cheap: the default order is small
    monkeypatch.setenv("BRANCHFLOW_DEFAULT_ORDER", "4")
    outcome(argv, capsys)
