"""A seeded probe of the command line: mutated expression and database texts
run through ``cli.main`` in process, under random caps.

Every input must exit 0, 1, 2 or 3 with no exception escaping ``main`` and
no traceback on stderr, and an input that exits 0 must print the same
stdout when run again.  The corpus, the mutations and the caps all come
from one seed and the input count is fixed, so the probe is deterministic.
"""

import gc
import random

from eqalg import cli
from eqalg.constructions import registry
from eqalg.model import Database, flat_type
from eqalg.parser import render_database, render_expr

from oracles import random_expr, random_type, random_value
from test_evaluator import _flat_cases

PROBES = 240

# tokens a mutation inserts: operator keywords and brackets, a huge
# integer, NUL and characters outside ASCII
TOKENS = (
    "union(", "minus(", "times(", "project[1](", "select[1=2](", "nest[1](", "unnest[1](",
    "powerset(", "solve{(X:(0)) | ", "(", ")", "[", "]", "{", "}", ",", "|", "=", ":", "D",
    "99999999999999999999999999", "\x00", "é", "☃", "\ud800",
)  # fmt: skip

# databases on which the constructions type, and their generators
CONSTRUCTION_DBS = (
    "domain [a,b,c]\nR:(0,0) = [[a,b],[b,c]]\n",
    "domain [a,b]\nR:(0) = [[a]]\n",
    "domain [a,b,c]\nR:(0) = [[a],[b],[c]]\n",
)
GENS = ("domain", "flat:R:(0):0.5", "flat:R:(0,0):0.5", "flat:S:(0):1.0,R:(0):0.5")


def _corpus(rng):
    """``(expression text, database text)``: the flat solve bodies, then
    random expressions over a flat and a nested relation."""
    texts = [(render_expr(e), render_database(db)) for e, _, db, _ in _flat_cases(set())]
    for _ in range(40):
        schema = {"R": flat_type(2), "N": random_type(rng)}
        atoms = ("a", "b", "c")[: rng.randint(1, 3)]
        db = Database(atoms, {nm: random_value(rng, t, atoms) for nm, t in schema.items()})
        e = random_expr(rng, schema, steps=rng.randint(1, 5))
        texts.append((render_expr(e), render_database(db)))
    return texts


def _mutate(rng, text: str) -> str:
    """``text`` with one to three characters deleted, replaced or inserted,
    or tokens inserted."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        how = rng.choice(("delete", "replace", "insert"))
        if how == "delete":
            text = text[:at] + text[at + 1 :]
        elif how == "replace":
            text = text[:at] + rng.choice("()[]{},|=:0aXDR 1\né") + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(TOKENS) + text[at:]
    return text


def _maybe_mutated(rng, text: str) -> str:
    """``text`` mutated one time in four, so that most inputs get past the
    parser and some of them past the budgets."""
    return _mutate(rng, text) if rng.random() < 0.25 else text


def _caps(rng) -> list:
    """Each cap flag with probability one half, at a value from 1 to 2^16."""
    argv = []
    for flag in ("--max-space", "--max-candidates", "--max-solutions"):
        if rng.random() < 0.5:
            argv += [flag, str(int(2 ** rng.uniform(0, 16)))]
    return argv


def _write(path, text: str) -> str:
    # a lone surrogate is written as the bytes that would encode it, which
    # are not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


def _argv(rng, tmp_path, k: int, expr: str, db_text: str) -> list:
    """One command line over the input ``k``, a mutated expression and
    database text or the text as it is."""
    command = rng.choice(("eval", "solve", "solve --nonempty", "check", "construction", "profile"))
    expr_file = tmp_path / f"{k}.expr"
    db_file = tmp_path / f"{k}.edb"
    if command == "construction":
        name = _maybe_mutated(rng, rng.choice(sorted(registry())))
        db = _write(db_file, _maybe_mutated(rng, rng.choice(CONSTRUCTION_DBS)))
        return ["construction", "--name", name, "--db", db, "--verify", *_caps(rng)]
    if command == "profile":
        if rng.random() < 0.5:
            eq = _maybe_mutated(rng, rng.choice(sorted(registry())))
        else:
            eq = _write(expr_file, _maybe_mutated(rng, expr))
        n_range = _maybe_mutated(rng, rng.choice(("1..2", "1..3", "2..3")))
        gen = ["--gen", _maybe_mutated(rng, rng.choice(GENS))] if rng.random() < 0.7 else []
        meter = ["--meter"] if rng.random() < 0.5 else []
        return ["profile", "--eq", eq, "--n-range", n_range, *gen, *meter, *_caps(rng)]
    expr = _maybe_mutated(rng, expr)
    source = ["--expr", expr] if rng.random() < 0.5 else ["--expr-file", _write(expr_file, expr)]
    db = ["--db", _write(db_file, _maybe_mutated(rng, db_text))]
    if command == "check":
        return ["check", *source, *(db if rng.random() < 0.7 else [])]
    return [*command.split(), *db, *source, *_caps(rng)]


def _run(capsys, argv):
    try:
        code = cli.main(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape is the failure
        raise AssertionError(f"{type(exc).__name__} escaped main for {argv!r}") from exc
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    return code, out


def test_mutated_inputs_never_escape_the_exit_codes(capsys, tmp_path, monkeypatch):
    # each command starts with a full collection (see cli._collector_paused),
    # which in a test process holding every module's data is most of a
    # probe's time; the probe tests exit codes, so it skips them
    monkeypatch.setattr(gc, "collect", lambda *args: 0)
    rng = random.Random(9990)
    corpus = _corpus(rng)
    codes = set()
    for k in range(PROBES):
        argv = _argv(rng, tmp_path, k, *rng.choice(corpus))
        code, out = _run(capsys, argv)
        if code == 0:
            assert _run(capsys, argv) == (code, out), argv
        codes.add(code)
    assert codes >= {0, 1, 2}
