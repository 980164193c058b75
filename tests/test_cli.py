import gc
import hashlib
import io
import itertools
import weakref

import pytest

from eqalg import cli, constructions
from eqalg.cli import main
from eqalg.evaluator import domain_relation, evaluate
from eqalg.model import Rel, row_sort_key
from eqalg.parser import MAX_TYPE_DEPTH, ParseError, parse_database, parse_type, render_relation

PAIR = "domain [a,b]\nR:(0,0) = [[a,b]]\n"
THREE = "domain [a,b,c]\n"


@pytest.fixture()
def pair_db(tmp_path):
    p = tmp_path / "pair.edb"
    p.write_text(PAIR)
    return str(p)


@pytest.fixture()
def three_db(tmp_path):
    p = tmp_path / "three.edb"
    p.write_text(THREE)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_projection(capsys, pair_db):
    code, out, _ = run(capsys, ["eval", "--db", pair_db, "--expr", "project[1](R)"])
    assert code == 0
    assert out == "[[a]]\n"


def test_eval_metrics_on_stderr(capsys, pair_db):
    code, out, err = run(
        capsys, ["eval", "--db", pair_db, "--expr", "union(R,R)", "--metrics"]
    )
    assert code == 0
    assert "peak_space_units" in err
    assert "peak_space_units" not in out


def test_eval_type_error_exits_1(capsys, pair_db):
    code, _, err = run(capsys, ["eval", "--db", pair_db, "--expr", "union(R,D)"])
    assert code == 1
    assert "mismatched" in err


def test_eval_stdout_reproducible(capsys, pair_db):
    argv = ["eval", "--db", pair_db, "--expr", "powerset(R)"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_solve_and_nonempty(capsys, pair_db):
    code, out, _ = run(
        capsys, ["solve", "--db", pair_db, "--expr", "solve{(X:(0,0)) | union(X,R) = R}"]
    )
    assert code == 0
    assert out == "[[[]],[[[a,b]]]]\n"
    code, out, _ = run(
        capsys,
        ["solve", "--db", pair_db, "--nonempty", "--expr", "solve{(X:(0)) | X = D}"],
    )
    assert code == 0 and out == "true\n"


def test_solve_requires_solve_expression(capsys, pair_db):
    code, _, err = run(capsys, ["solve", "--db", pair_db, "--expr", "R"])
    assert code == 1


def test_budget_flag_gives_exit_2(capsys, pair_db):
    code, _, err = run(
        capsys,
        [
            "solve",
            "--db",
            pair_db,
            "--expr",
            "solve{(X:(0,0)) | union(X,R) = R}",
            "--max-candidates",
            "3",
        ],
    )
    assert code == 2
    assert "candidates" in err


def test_env_budget_and_flag_priority(capsys, pair_db, monkeypatch):
    monkeypatch.setenv("EQALG_MAX_CANDIDATES", "3")
    code, _, _ = run(
        capsys, ["solve", "--db", pair_db, "--expr", "solve{(X:(0,0)) | union(X,R) = R}"]
    )
    assert code == 2
    code, _, _ = run(
        capsys,
        [
            "solve",
            "--db",
            pair_db,
            "--expr",
            "solve{(X:(0,0)) | union(X,R) = R}",
            "--max-candidates",
            "100",
        ],
    )
    assert code == 0



@pytest.mark.parametrize(
    "name", ["EQALG_MAX_CANDIDATES", "EQALG_MAX_SPACE", "EQALG_MAX_SOLUTIONS"]
)
def test_bad_integer_in_budget_env_is_a_user_error(capsys, pair_db, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, ["eval", "--db", pair_db, "--expr", "R"])
    assert (code, out) == (1, "")
    assert err == f"error: bad integer in {name}: 'abc'\n"

def test_check_reports_type_and_binding_violations(capsys, pair_db):
    code, out, _ = run(
        capsys, ["check", "--expr", "solve{(X:(0,0)) | union(X,R) = R}", "--db", pair_db]
    )
    assert code == 0 and out == "((0,0))\n"
    # X is free in the whole expression and bound inside it: unknown on the
    # database, and colliding with the binary X assumed without one
    bound_free = "times(X, solve{(X:(0,0)) | union(X,R) = R})"
    code, out, err = run(capsys, ["check", "--expr", bound_free, "--db", pair_db])
    assert (code, out, err) == (1, "", "error: unknown relation name 'X' (at left)\n")
    code, out, err = run(capsys, ["check", "--expr", bound_free])
    assert (code, out) == (1, "")
    assert err.endswith(
        "error: solve variable 'X' collides with a visible relation name (at right)\n"
    )


def test_parse_error_exits_1(capsys, pair_db):
    code, _, err = run(capsys, ["eval", "--db", pair_db, "--expr", "union(R"])
    assert code == 1
    assert "line" in err


def test_construction_verify(capsys, three_db, pair_db):
    code, out, err = run(
        capsys, ["construction", "--name", "parity", "--db", three_db, "--verify"]
    )
    assert code == 0
    assert out == "[]\n"
    assert "VERIFY PASS" in err
    code, out, err = run(
        capsys, ["construction", "--name", "tc-sparse", "--db", pair_db, "--verify"]
    )
    assert code == 0
    assert out == "[[a,b]]\n"
    assert "VERIFY PASS" in err
    code, _, err = run(capsys, ["construction", "--name", "nope", "--db", pair_db])
    assert code == 1


def test_construction_says_when_it_has_no_metrics(capsys, pair_db):
    # tc-sparse runs through its harness, which returns only the closure
    code, out, err = run(
        capsys, ["construction", "--name", "tc-sparse", "--db", pair_db, "--metrics"]
    )
    assert (code, out) == (0, "[[a,b]]\n")
    assert err == "no metrics: tc-sparse runs a harness, which reports none\n"
    code, _, err = run(capsys, ["construction", "--name", "parity", "--db", pair_db, "--metrics"])
    assert code == 0 and err.startswith("peak_space_units ")


def test_profile_gen_rejects_a_repeated_name(capsys):
    argv = ["profile", "--eq", "powerset", "--n-range", "1..2",
            "--gen", "flat:R:(0):0.5,R:(0,0):0.5"]  # fmt: skip
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: relation 'R' given twice in --gen (line 1, column 1)\n"


def test_every_registered_construction_verifies(capsys, tmp_path):
    db_file = tmp_path / "r.edb"
    db_file.write_text("domain [a,b,c]\nR:(0,0) = [[a,b],[b,c]]\n")
    unary = tmp_path / "u.edb"
    unary.write_text("domain [a,b]\nR:(0) = [[a]]\n")
    plain = tmp_path / "d.edb"
    plain.write_text("domain [a,b]\n")
    cases = {
        "parity": plain,
        "singleton": plain,
        "powerset": unary,
        "tc-powerset": db_file,
        "tc-sparse": db_file,
        "nest-sparse": db_file,
    }
    for name, db in cases.items():
        code, _, err = run(
            capsys,
            ["construction", "--name", name, "--db", str(db), "--verify",
             "--max-space", "2000000000"],
        )
        assert code == 0, (name, err)
        assert "VERIFY PASS" in err, name


def test_construction_checks_its_relations_not_extra_ones(capsys, tmp_path, three_db):
    ternary = tmp_path / "ternary.edb"
    ternary.write_text(TERNARY)
    extra = tmp_path / "extra.edb"
    extra.write_text("domain [a,b]\nR:(0,0) = [[a,b]]\nS:(0) = [[a]]\n")
    code, out, err = run(capsys, ["construction", "--name", "tc-sparse", "--db", three_db])
    assert (code, out) == (1, "")
    assert err == (
        "error: construction tc-sparse needs a relation R of type (0,0), the database has none\n"
    )
    code, out, err = run(
        capsys, ["construction", "--name", "nest-sparse", "--verify", "--db", str(ternary)]
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: construction nest-sparse needs a relation R of type (0,0),"
        " the database has type (0,0,0)\n"
    )
    for name in ("tc-powerset", "tc-sparse", "nest-sparse"):
        code, _, err = run(capsys, ["construction", "--name", name, "--db", str(extra), "--verify"])
        assert code == 0 and "VERIFY PASS" in err, (name, err)


def test_solutions_are_decoded_only_when_read(capsys, tmp_path, decoded):
    # profile only counts solutions; construction --verify renders its
    # solution set from the counter values and compares it with the oracle's
    # relation in counter space, so neither decodes a solution
    code, _, _ = run(capsys, ["profile", "--eq", "powerset", "--n-range", "1..10"])
    assert code == 0 and sum(decoded) == 0
    atoms = [f"a{i}" for i in range(10)]
    db = tmp_path / "ten.edb"
    db.write_text(f"domain [{','.join(atoms)}]\nR:(0) = [{','.join(f'[{a}]' for a in atoms)}]\n")
    code, _, err = run(capsys, ["construction", "--name", "powerset", "--db", str(db), "--verify"])
    assert code == 0 and "VERIFY PASS" in err
    assert sum(decoded) == 0


def _near_miss_powerset(how):
    """The powerset oracle with one subset replaced by another inside the
    domain, by one holding an atom outside it, or dropped."""
    real = constructions._oracle_powerset

    def oracle(db):
        expected = real(db)
        rows = sorted(expected.rows, key=row_sort_key)
        (subset,) = rows.pop(1)  # {a}
        if how == "inside":  # {a,d}: in the universe over the domain, not a subset of R
            rows.append((Rel(subset.rtype, subset.rows | {("d",)}),))
        elif how == "outside":  # {a,z}: z is not in the domain
            rows.append((Rel(subset.rtype, subset.rows | {("z",)}),))
        return Rel(expected.rtype, rows)

    return oracle


@pytest.mark.parametrize("how", ["inside", "outside", "dropped"])
def test_verify_fails_on_a_near_miss_oracle(capsys, monkeypatch, tmp_path, decoded, how):
    # the oracle's relation differs from the solution set in one row, and
    # only in "dropped" does its length differ
    db = tmp_path / "four.edb"
    db.write_text("domain [a,b,c,d]\nR:(0) = [[a],[b],[c]]\n")
    argv = ["construction", "--name", "powerset", "--db", str(db), "--verify"]
    code, passed, _ = run(capsys, argv)
    assert code == 0
    oracle = _near_miss_powerset(how)
    monkeypatch.setattr(constructions, "_oracle_powerset", oracle)
    expected = oracle(parse_database(db.read_text())[0])
    assert len(expected) == (7 if how == "dropped" else 8)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, passed)
    assert err == f"VERIFY FAIL\nexpected {render_relation(expected)}\n"
    assert sum(decoded) == 0


def test_construction_powerset_prints_every_subset_in_order(capsys, tmp_path):
    atoms = ("a1", "9", "_b", "a", "10", "B")
    db = tmp_path / "six.edb"
    db.write_text(f"domain [{','.join(atoms)}]\nR:(0) = [{','.join(f'[{a}]' for a in atoms)}]\n")
    code, out, err = run(capsys, ["construction", "--name", "powerset", "--db", str(db), "--verify"])
    assert code == 0 and "VERIFY PASS" in err
    # a subset is a row holding one unary relation; subsets as sorted atom lists
    subsets = sorted(
        sorted(combo) for k in range(len(atoms) + 1) for combo in itertools.combinations(atoms, k)
    )
    rows = ["[[" + ",".join(f"[{a}]" for a in subset) + "]]" for subset in subsets]
    assert len(rows) == 64
    assert out == "[" + ",".join(rows) + "]\n"


# stdout digests recorded when solution sets were still sorted on their row
# keys: the powerset of ten atoms, and a solve with two binders, one of them
# over a 9-row universe, whose 225 solutions are not in candidate order
GOLDEN_STDOUT = {
    "powerset": (
        "domain [a0,a1,a2,a3,a4,a5,a6,a7,a8,a9]\n"
        "R:(0) = [[a3],[a7],[a0],[a9],[a1],[a5],[a8],[a2],[a6],[a4]]\n",
        ["construction", "--name", "powerset"],
        "48fdb9489726296fabaf3ce15717d1b43e2d3d9dc5c6197ba77e42623e78d355",
    ),
    "two_binders": (
        "domain [a,b,c]\nR:(0,0) = [[a,b],[b,c]]\n",
        ["solve", "--expr", "solve{(X:(0,0),Y:(0)) | union(project[1](X),Y) = project[1](R)}"],
        "e40fa171a13e02bce24af6e99c44cab43e3ab3320d9578b1a1dd4e34cfcf4a5c",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_solution_order_matches_recorded_stdout(capsys, tmp_path, case):
    text, argv, digest = GOLDEN_STDOUT[case]
    db = tmp_path / "golden.edb"
    db.write_text(text)
    code, out, _ = run(capsys, argv + ["--db", str(db)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eval_accepts_solve_expressions(capsys, tmp_path):
    db = tmp_path / "u.edb"
    db.write_text("domain [a,b]\nR:(0) = [[a]]\n")
    code, out, _ = run(
        capsys, ["eval", "--db", str(db), "--expr", "solve{(X:(0)) | union(X,R) = R}"]
    )
    assert code == 0
    assert out == "[[[]],[[[a]]]]\n"


def test_profile_table_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.edb"
    code, out, err = run(
        capsys,
        ["profile", "--eq", "singleton", "--n-range", "1..5", "--out", str(out_file)],
    )
    assert code == 0
    assert "POLY_LIKE(1)" in out
    assert "wall_ms" in err and "wall_ms" not in out
    db, schema = parse_database(out_file.read_text())
    assert "points" in schema
    # stdout reproducible
    code2, out2, _ = run(
        capsys, ["profile", "--eq", "singleton", "--n-range", "1..5"]
    )
    assert out2 == out


def test_profile_meter_powerset(capsys):
    import textwrap, tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pp.expr")
        with open(path, "w") as fh:
            fh.write("powerset(times(D,D))")
        code, out, _ = run(
            capsys, ["profile", "--eq", path, "--n-range", "2..4", "--meter", "--gen", "domain"]
        )
    assert code == 0
    assert "EXPONENTIAL_LIKE" in out


def test_profile_truncation_exit_2(capsys):
    code, out, _ = run(
        capsys,
        ["profile", "--eq", "powerset", "--n-range", "1..6", "--max-candidates", "20"],
    )
    assert code == 2
    assert "truncated" in out


def test_gen_format_supports_multiple_typed_relations(capsys, tmp_path):
    path = tmp_path / "eq.expr"
    path.write_text("solve{(X:(0)) | times(project[1](R),S) = times(project[1](R),S)}")
    code, out, _ = run(
        capsys,
        ["profile", "--eq", str(path), "--n-range", "1..3",
         "--gen", "flat:R:(0,0):0.5,S:(0):1.0", "--seed", "3"],
    )
    assert code == 0
    assert "FLAT_VARS_OK" in out


def test_profile_equation_file_with_nested_variable(capsys, tmp_path):
    path = tmp_path / "nested.eq"
    path.write_text("solve{(X:((0))) | X = X}")
    code, out, _ = run(
        capsys, ["profile", "--eq", str(path), "--n-range", "1..3", "--gen", "domain"]
    )
    assert code == 0
    assert "NON_FLAT" in out


def test_repl_session(capsys, monkeypatch, pair_db):
    lines = io.StringIO(
        f":load {pair_db}\nD\n:type project[2](R)\nbadsyntax(\nunion(R,D)\nproject[2](R)\n:quit\n"
    )
    monkeypatch.setattr("sys.stdin", lines)
    code, out, err = run(capsys, ["repl"])
    assert code == 0
    assert out.splitlines() == ["[[a],[b]]", "(0)", "[[b]]"]
    assert "error:" in err  # both failures reported, loop survived


def test_repl_survives_missing_load_file(capsys, monkeypatch, pair_db):
    lines = io.StringIO(f":load /nonexistent.edb\n:load {pair_db}\nD\n:quit\n")
    monkeypatch.setattr("sys.stdin", lines)
    code, out, err = run(capsys, ["repl"])
    assert code == 0
    assert out == "[[a],[b]]\n"
    assert "error:" in err


def test_repl_survives_deep_and_non_utf8_input(capsys, monkeypatch, pair_db, tmp_path):
    latin1 = tmp_path / "latin1.edb"
    latin1.write_bytes(LATIN1)
    lines = io.StringIO(f":load {latin1}\n{DEEP}\n:type {DEEP}\nD\n:quit\n")
    monkeypatch.setattr("sys.stdin", lines)
    code, out, err = run(capsys, ["repl", "--db", pair_db])
    assert code == 0
    assert out == "[[a],[b]]\n"
    assert err.count("error: ") == 3
    assert "byte 0xe9 is not UTF-8 text (line 2, column 11)" in err
    assert "nested deeper than 420 levels" in err


def test_expression_nested_400_deep_evaluates(capsys, pair_db):
    deep = "union(" * 400 + "R" + ",R)" * 400
    assert run(capsys, ["eval", "--db", pair_db, "--expr", deep]) == (0, "[[a,b]]\n", "")
    solve = "solve{(X:(0,0)) | " + "union(" * 400 + "X" + ",R)" * 400 + " = R}"
    code, out, _ = run(capsys, ["eval", "--db", pair_db, "--expr", solve])
    assert (code, out) == (0, "[[[]],[[[a,b]]]]\n")


def test_type_nested_to_the_limit_parses_checks_and_prints(capsys, tmp_path):
    t = "(" * MAX_TYPE_DEPTH + "0" + ")" * MAX_TYPE_DEPTH
    assert str(parse_type(t)) == t
    code, out, _ = run(capsys, ["check", "--expr", f"solve{{(X:{t}) | X = X}}"])
    assert (code, out) == (0, f"({t})\n")
    # a value as deep as its type is checked, rendered and sized
    value = "[[" * MAX_TYPE_DEPTH + "a" + "]]" * MAX_TYPE_DEPTH
    db = tmp_path / "deep.edb"
    db.write_text(f"domain [a]\nR:{t} = {value}\n")
    code, out, err = run(capsys, ["eval", "--db", str(db), "--expr", "union(R,R)", "--metrics"])
    assert (code, out) == (0, value + "\n")
    assert f"peak_space_units {3 * (MAX_TYPE_DEPTH + 1)}" in err
    with pytest.raises(ParseError, match=f"type nested deeper than {MAX_TYPE_DEPTH} levels"):
        parse_type(f"({t})")


def test_repl_metrics_toggle(capsys, monkeypatch, pair_db):
    lines = io.StringIO(":metrics\nD\n:metrics\nD\n:quit\n")
    monkeypatch.setattr("sys.stdin", lines)
    code, out, err = run(capsys, ["repl", "--db", pair_db])
    assert code == 0
    assert out == "[[a],[b]]\n[[a],[b]]\n"
    assert err.count("peak_space_units") == 1  # only while toggled on


def test_check_without_db_assumes_flat_binary(capsys):
    code, out, err = run(capsys, ["check", "--expr", "project[1](R)"])
    assert code == 0
    assert out == "(0)\n"
    assert "assumed flat binary" in err


def _stdouts_under_hash_seeds(argv) -> set:
    """The distinct stdouts of ``eqalg.cli`` runs of ``argv``, each in a fresh
    process under its own hash seed; each run must exit 0."""
    import os
    import subprocess
    import sys

    import eqalg

    # The child env is cleared so that neither the parent's hash seed nor the
    # rest of its environment reaches the child. PYTHONPATH is the one thing
    # passed through: the directory holding the eqalg package this process
    # imported, so the child runs the same code whether the package is
    # installed or found via PYTHONPATH=src.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    outs = set()
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "eqalg.cli", *argv],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    return outs


def test_stdout_identical_across_processes_and_hash_seeds(tmp_path):
    db = tmp_path / "r.edb"
    db.write_text("domain [a,b,c]\nR:(0,0) = [[a,b],[b,c]]\n")
    commands = [
        ["eval", "--db", str(db), "--expr", "nest[1](powerset(project[1](R)))"],
        ["solve", "--db", str(db), "--expr", "solve{(X:(0)) | union(X,D) = D}"],
        ["profile", "--eq", "singleton", "--n-range", "1..4"],
        ["profile", "--eq", "nest-sparse", "--n-range", "2..4", "--meter",
         "--gen", "flat:R:(0,0):0.5", "--seed", "7"],
    ]
    for argv in commands:
        assert len(_stdouts_under_hash_seeds(argv)) == 1, argv


def test_solution_sets_print_identically_across_hash_seeds(tmp_path):
    # solution sets print from their counter values: two flat binders, and
    # a nested binder whose universe rows are relations
    db = tmp_path / "r.edb"
    db.write_text("domain [a,b,c]\nR:(0,0) = [[a,b],[b,c]]\n")
    for expr in (
        "solve{(X:(0),Y:(0)) | union(X,Y) = project[2](R)}",
        "solve{(X:((0))) | project[2](unnest[1](X)) = project[1](R)}",
    ):
        outs = _stdouts_under_hash_seeds(["solve", "--db", str(db), "--expr", expr])
        assert len(outs) == 1, expr
        assert outs.pop().count("],[") > 4, expr  # several solutions


# an empty n-range, one starting below 1 and densities outside [0, 1]:
# well-formed, but user errors
OUT_OF_RANGE_ARGV = [
    ["profile", "--eq", "powerset", "--n-range", "3..1"],
    ["profile", "--eq", "powerset", "--n-range", "0..2"],
    ["profile", "--eq", "powerset", "--n-range", "1..2", "--gen", "flat:R:(0):nan"],
    ["profile", "--eq", "powerset", "--n-range", "1..2", "--gen", "flat:R:(0):2.5"],
]
BAD_ARGV = [
    ["profile", "--eq", "powerset", "--n-range", "1..x"],
    ["profile", "--eq", "powerset", "--n-range", "12"],
    ["profile", "--eq", "powerset", "--n-range", "1..2", "--gen", "flat:R:(0):abc"],
    ["profile", "--eq", "powerset", "--n-range", "1..2", "--gen", "flat:R:(0,0"],
    ["profile", "--eq", "powerset", "--n-range", "1..2", "--gen", "flat:R:(0):0.5,R:(0,0):0.5"],
    ["profile", "--eq", "no-such-construction", "--n-range", "1..2"],
    ["eval", "--db", "{missing}", "--expr", "R"],
    ["eval", "--db", "{db}", "--expr", "times(R"],
    ["eval", "--db", "{db}", "--expr", "R", "--max-space", "0"],
    ["solve", "--db", "{db}", "--expr", "R"],
    ["construction", "--name", "no-such-construction", "--db", "{db}"],
    ["eval", "--db", "{db}"],
    ["eval", "--db", "{db}", "--expr", "{deep}"],
    ["eval", "--db", "{latin1}", "--expr", "R"],
    ["eval", "--db", "{db}", "--expr-file", "{latin1}"],
    ["solve", "--db", "{db}", "--expr", "{wide_solve}"],
    ["solve", "--db", "{db}", "--expr", "{nested_solve}"],
    ["check", "--expr", "{deep_type_solve}"],
    ["eval", "--db", "{deep_type_db}", "--expr", "R"],
    ["construction", "--name", "tc-sparse", "--db", "{three}"],
    ["construction", "--name", "nest-sparse", "--verify", "--db", "{ternary}"],
    *OUT_OF_RANGE_ARGV,
]

# 900 nested unions, over the parser's nesting limit
DEEP = "union(" * 900 + "R" + ",R)" * 900
LATIN1 = "domain [a,b]\nR:(0) = [[\xe9]]\n".encode("latin-1")
# candidate spaces of 2^(2^100) and 2^(2^128) on two atoms: refused on their
# exponent, neither count is built
WIDE_SOLVE = "solve{(X:(" + ",".join(["0"] * 100) + ")) | X = X}"
NESTED_SOLVE = "solve{(X:((0,0,0,0,0,0,0))) | X = X}"
# types nested 250 and 1200 levels deep, over the parser's type nesting limit
DEEP_TYPE_SOLVE = "solve{(X:" + "(" * 250 + "0" + ")" * 250 + ") | X = X}"
DEEP_TYPE_DB = "domain [a]\nR:" + "(" * 1200 + "0" + ")" * 1200 + " = []\n"
TERNARY = "domain [a,b]\nR:(0,0,0) = [[a,b,a]]\n"


@pytest.mark.parametrize(
    "argv",
    [["eval", "--db", "pair.edb"], ["check", "--expr", "R", "--max-space", "5"]],
    ids=" ".join,
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage: eqalg" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "usage: eqalg" in out


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_argv_exits_with_error_code_not_traceback(argv, tmp_path, pair_db):
    import os
    import subprocess
    import sys

    import eqalg

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    latin1 = tmp_path / "latin1.edb"
    latin1.write_bytes(LATIN1)
    deep_type_db = tmp_path / "deep_type.edb"
    deep_type_db.write_text(DEEP_TYPE_DB)
    three = tmp_path / "three.edb"
    three.write_text(THREE)
    ternary = tmp_path / "ternary.edb"
    ternary.write_text(TERNARY)
    fields = {
        "db": pair_db,
        "missing": tmp_path / "missing.edb",
        "deep": DEEP,
        "latin1": latin1,
        "wide_solve": WIDE_SOLVE,
        "nested_solve": NESTED_SOLVE,
        "deep_type_solve": DEEP_TYPE_SOLVE,
        "deep_type_db": deep_type_db,
        "three": three,
        "ternary": ternary,
    }
    argv = [a.format(**fields) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "eqalg.cli", *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode in (1, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_package_runs_as_a_module(pair_db):
    import os
    import subprocess
    import sys

    import eqalg

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "eqalg", "eval", "--db", pair_db, "--expr", "project[2](R)"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[[b]]\n", "")


# the powerset construction verified against the singleton oracle: VERIFY FAIL
WRONG_ORACLE = "constructions._oracle_powerset = constructions._oracle_singleton"


def test_main_in_process_matches_fresh_processes(capsys, monkeypatch, pair_db, tmp_path):
    # the parser is built once per process, so two calls of main in one
    # process must print and exit as a fresh process does, for every exit
    # code and for help
    import os
    import subprocess
    import sys

    import eqalg

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    unary = tmp_path / "unary.edb"
    unary.write_text("domain [a,b]\nR:(0) = [[a],[b]]\n")
    cases = [
        ["eval", "--db", pair_db, "--expr", "project[1](R)"],
        ["eval", "--db", pair_db, "--expr", "union(R,D)"],
        ["eval", "--db", pair_db],
        ["eval", "--db", pair_db, "--expr", "powerset(R)", "--max-space", "3"],
        ["construction", "--name", "powerset", "--verify", "--db", str(unary)],
        ["--help"],
        ["profile", "--help"],
    ]
    driver = (
        "import sys; from eqalg import cli, constructions; "
        f"{WRONG_ORACLE}; sys.exit(cli.main(sys.argv[1:]))"
    )
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    monkeypatch.setattr(constructions, "_oracle_powerset", constructions._oracle_singleton)
    codes = set()
    for argv in cases:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", driver, *argv],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "COLUMNS": "80"},
        )
        fresh = (proc.returncode, proc.stdout, proc.stderr)
        assert run(capsys, argv) == fresh, argv
        assert run(capsys, argv) == fresh, argv
        codes.add(proc.returncode)
    assert codes == {0, 1, 2, 3}
    assert cli.build_arg_parser() is cli.build_arg_parser()


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGV, ids=" ".join)
def test_empty_n_range_and_bad_density_exit_1(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad ")


# ---------------------------------------------------------------------------
# the cycle collector: one collection, then paused while a command runs

COLLECTOR_CASES = {
    "exit_0": (["eval", "--db", "PAIR", "--expr", "R"], 0),
    "exit_1": (["eval", "--db", "PAIR", "--expr", "union(R"], 1),
    "exit_2": (
        ["solve", "--db", "PAIR", "--expr", "solve{(X:(0,0)) | union(X,R) = R}",
         "--max-candidates", "3"],
        2,
    ),  # fmt: skip
    "exit_3": (["construction", "--name", "parity", "--db", "THREE", "--verify"], 3),
    "usage_error": (["eval", "--db", "PAIR"], 1),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_main_restores_the_collector_state(capsys, monkeypatch, pair_db, three_db, case, enabled):
    argv, expected = COLLECTOR_CASES[case]
    argv = [{"PAIR": pair_db, "THREE": three_db}.get(a, a) for a in argv]
    if case == "exit_3":  # a wrong oracle fails --verify
        monkeypatch.setattr(constructions, "_oracle_parity", lambda db: domain_relation(db.atoms))
    if not enabled:
        gc.disable()
    try:
        code, _, err = run(capsys, argv)
        assert (code, gc.isenabled()) == (expected, enabled), err
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_main_collects_before_the_command_and_pauses_during_it(
    capsys, monkeypatch, pair_db, enabled
):
    class Node:
        pass

    node = Node()
    node.me = node
    ref = weakref.ref(node)
    del node
    seen = []

    def spy(*args):
        seen.append((ref() is None, gc.isenabled()))
        return evaluate(*args)

    monkeypatch.setattr(cli, "evaluate", spy)
    if not enabled:
        gc.disable()
    try:
        assert run(capsys, ["eval", "--db", pair_db, "--expr", "R"]) == (0, "[[a,b]]\n", "")
        assert seen == [(True, False)]  # cycle collected, collector paused
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_repl_pauses_the_collector_per_line(capsys, monkeypatch, pair_db):
    # a good line, a budget refusal and a bad :load; the collector runs
    # while the repl waits for input and is paused while it evaluates
    reading, evaluating = [], []

    class Lines(io.StringIO):
        def readline(self, *args):
            reading.append(gc.isenabled())
            return super().readline(*args)

    def spy(*args):
        evaluating.append(gc.isenabled())
        return evaluate(*args)

    monkeypatch.setattr(cli, "evaluate", spy)
    monkeypatch.setattr(
        "sys.stdin", Lines("D\nsolve{(X:(0,0)) | X = X}\n:load /nonexistent.edb\n:quit\n")
    )
    code, out, err = run(capsys, ["repl", "--db", pair_db, "--max-candidates", "3"])
    assert (code, out) == (0, "[[a],[b]]\n")
    assert "budget: " in err and "error: " in err
    assert reading == [True] * 4 and evaluating == [False] * 2
    assert gc.isenabled()
