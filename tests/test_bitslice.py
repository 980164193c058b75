"""The vertical-counter helpers of ``eqalg.bitslice`` against plain ints.

A vertical counter holds one value per candidate of a block as bit planes:
plane i has bit c set when bit i of candidate c's value is set.
"""

import random

import pytest

from eqalg import ast, bitslice, evaluator, model
from eqalg.ast import Difference, Domain, Name, Product, Solve
from eqalg.evaluator import EvalBudget
from eqalg.model import Database, Rel, flat_type
from test_evaluator import _fixed_flat_cases, _flat_cases

FLAT1 = flat_type(1)

SEED = 12_001


def planes(values, rng=None) -> list:
    """The vertical counter of ``values``, candidate c's value at ``values[c]``,
    with up to two zero planes on top when ``rng`` is given."""
    out = [0] * max((v.bit_length() for v in values), default=0)
    for c, v in enumerate(values):
        for i in range(v.bit_length()):
            if v >> i & 1:
                out[i] |= 1 << c
    return out + [0] * (rng.randrange(3) if rng else 0)


def values(a: list, n: int) -> list:
    """The values of vertical counter ``a`` for candidates 0..n-1."""
    return [sum((p >> c & 1) << i for i, p in enumerate(a)) for c in range(n)]


def random_values(rng, n: int) -> list:
    """n values, each 0, small, or above 2^64."""
    return [
        rng.choice((0, rng.randrange(1, 8), rng.randrange(1 << 64, 1 << 72)))
        for _ in range(n)
    ]


def cases(count=300):
    """``(rng, n, xs, ys)``: two random value lists for a block of n."""
    rng = random.Random(SEED)
    for _ in range(count):
        n = rng.randint(1, 64)
        yield rng, n, random_values(rng, n), random_values(rng, n)


def test_planes_round_trip_through_vat():
    for rng, n, xs, _ in cases():
        a = planes(xs, rng)
        assert values(a, n) == xs
        assert [bitslice._vat(a, c) for c in range(n)] == xs


def test_arithmetic():
    for rng, n, xs, ys in cases():
        a, b = planes(xs, rng), planes(ys, rng)
        assert values(bitslice._vadd(a, b), n) == [x + y for x, y in zip(xs, ys)]
        assert values(bitslice._vmul(a, b), n) == [x * y for x, y in zip(xs, ys)]
        w = rng.choice((1, 2, 3, rng.randrange(1, 1 << 20)))
        assert values(bitslice._vscale(a, w), n) == [x * w for x in xs]


def test_max_and_constants():
    for rng, n, xs, ys in cases():
        keep = (1 << n) - 1
        a, b = planes(xs, rng), planes(ys, rng)
        assert values(bitslice._vmax(a, b, keep), n) == [max(x, y) for x, y in zip(xs, ys)]
        # a free name's k rows, each held by every candidate
        k = rng.choice((0, 1, rng.randrange(2, 300)))
        assert values(bitslice._vcount([keep] * k), n) == [k] * n


def test_count_of_slices():
    # 0 to 70 slices, since a join level counts up to 64 rows, among them
    # all-zero and repeated slices; a few at blocks of 2^16 candidates
    rng = random.Random(SEED)
    blocks = [(n, k) for n in (1, 5, 64) for k in range(71)]
    blocks += [(1 << 16, k) for k in (1, 2, 3, 14, 64, 70)]
    for n, k in blocks:
        slices = []
        for _ in range(k):
            kind = rng.randrange(5)
            if kind == 0:
                slices.append(0)
            elif kind == 1 and slices:
                slices.append(rng.choice(slices))
            else:
                slices.append(rng.getrandbits(n))
        a = bitslice._vcount(iter(slices))
        assert not a or a[-1]  # no zero plane on top
        if n > 64:
            for c in rng.sample(range(n), 200) + [0, n - 1]:
                assert bitslice._vat(a, c) == sum(s >> c & 1 for s in slices)
        else:
            assert values(a, n) == [sum(s >> c & 1 for s in slices) for c in range(n)]


def test_max_and_threshold_over_a_mask():
    for rng, n, xs, ys in cases():
        a = planes(xs, rng)
        mask = rng.getrandbits(n) or 1 << rng.randrange(n)
        inside = [c for c in range(n) if mask >> c & 1]
        assert bitslice._vmax_in(a, mask) == max(xs[c] for c in inside)
        for t in (0, ys[0], xs[inside[0]], xs[inside[-1]] - 1, 1 << 80, -1, -(1 << 80)):
            above = sum(1 << c for c in inside if xs[c] > t)
            assert bitslice._vabove(a, t, mask) == above
    # every value exceeds a negative threshold, 0 and the empty counter too
    assert bitslice._vabove(bitslice._vcount([0b1111] * 3), -1, 0b1111) == 0b1111
    assert bitslice._vabove([], -1, 0b101) == 0b101


def test_exclusive_prefix_sum():
    # every block size from 1 to 2^6, with values of 0 and of over 2^64 and
    # runs of zeros at both ends, so that every round count is needed
    rng = random.Random(SEED)
    for n in range(1, 65):
        for _ in range(20):
            xs = random_values(rng, n)
            lo, hi = sorted((rng.randrange(n + 1), rng.randrange(n + 1)))
            xs = [0] * lo + xs[lo:hi] + [0] * (n - hi)
            s = bitslice._vprefix(planes(xs, rng), n)
            assert values(s, n + 1) == [sum(xs[:c]) for c in range(n + 1)]
            assert all(p >> (n + 1) == 0 for p in s)


def test_prefix_sum_of_zero_is_empty():
    for n in (1, 7, 64):
        assert bitslice._vprefix([], n) == []
        assert bitslice._vprefix([0, 0], n) == []


def test_set_bits_match_a_plain_loop():
    # no bit, the first or the last bit alone, sparse, half and full density,
    # and just few enough and one too many set bits for clearing them one at
    # a time, for block sizes that are and are not whole bytes
    rng = random.Random(SEED)
    for n in (1, 3, 8, 9, 15, 64, 100, 1 << 14, 1 << 16):
        full = (1 << n) - 1
        xs = [0, 1, 1 << (n - 1), full]
        xs += [sum({1 << rng.randrange(n) for _ in range(5)}) for _ in range(3)]
        xs += [rng.getrandbits(n) for _ in range(3)]
        for k in (model._FEW_BITS, model._FEW_BITS + 1):
            if k <= n:
                xs.append(sum(1 << c for c in rng.sample(range(n), k)))
        for x in xs:
            digits = format(x, f"0{n}b")[::-1]  # bit c of x at digits[c]
            assert model._bits(x, n) == [c for c in range(n) if digits[c] == "1"]


def test_max_returns_a_dominating_operand():
    # with one operand at least the other for every candidate of keep, that
    # operand itself is the maximum, the second one where they are equal
    for rng, n, xs, ys in cases():
        keep = (1 << n) - 1
        lows = [min(x, y) for x, y in zip(xs, ys)]
        a, b = planes(xs, rng), planes(lows, rng)
        if a and b:
            assert bitslice._vmax(a, b, keep) is (b if xs == lows else a)
            assert bitslice._vmax(b, a, keep) is a


def scan_oracle(hit, cs, bd, n, live0, cap, quota, refuse):
    """``_scan`` of a block with n candidates in keep, one candidate at a
    time on plain ints: ``cs`` and ``bd`` are the values of ``csize`` and
    ``body``.  Also says whether the stop candidate is a solution refused on
    its own charge alone."""
    kept = gained = found = 0
    peak = live0
    for c in range(n):
        solution = hit >> c & 1
        if solution and found == quota:
            return (kept, gained, peak, c), False
        top = max(cs[c] + bd[c], 2 * cs[c] + 1 if solution else 0)
        if live0 + gained + top > cap:
            return (kept, gained, peak, c), live0 + gained + cs[c] + bd[c] <= cap
        peak = max(peak, live0 + gained + top)
        if solution:
            kept |= 1 << c
            gained += cs[c] + 1
            found += 1
    return (kept, gained, peak, refuse), False


def test_scan_matches_the_candidate_loop():
    # blocks with 0, 1, 63, 64, 65 and thousands of solutions: the prefix
    # sum gives what the candidate loop gives, under every cap from the peak
    # down past the solutions' own charges (a sample of them with thousands)
    # and under quotas of 0, 1 and more, with a refused candidate known past
    # keep or not
    rng = random.Random(SEED)
    own_charge_refusals = 0
    for n, count in [(256, 0), (256, 1), (512, 63), (512, 64), (512, 65), (2048, 1500)]:
        hit = sum(1 << c for c in rng.sample(range(n), count))
        cs = [rng.randrange(4) for _ in range(n)]
        bd = [rng.randrange(8) for _ in range(n)]
        csize, body = planes(cs), planes(bd)
        live0 = rng.randrange(50)
        for size, refuse in ((n, None), (n - 9, n - 9)):
            keep = (1 << size) - 1
            peak = scan_oracle(hit & keep, cs, bd, size, live0, 1 << 40, 1 << 30, refuse)[0][2]
            caps = range(peak, live0 - 2, -1)
            if count > 100:
                caps = [*range(peak, peak - 10, -1), *range(peak - 10, live0 - 2, -97)]
            for cap in caps:
                for quota in (0, 1, count // 2, 1 << 30):
                    expected, own = scan_oracle(hit & keep, cs, bd, size, live0, cap, quota, refuse)
                    own_charge_refusals += own
                    walked, end, stop = bitslice._walked(hit & keep, keep, quota, refuse)
                    got = bitslice._scan(walked, csize, body, end, live0, cap, stop)
                    assert got == expected, (n, count, cap, quota)
    assert own_charge_refusals


def _declining_cases():
    """``(solve node, database)`` for flat bodies with a difference whose
    right operand names a binder and whose bound no candidate's value
    reaches, so that a block's top candidate is never read: there X holds
    every row it holds in the block, so D - X is at its smallest, while its
    bound counts every row of D that some candidate keeps; one binder and
    two."""
    X, Y, D, P = Name("X"), Name("Y"), Domain(), Name("P")
    x1, xy = (("X", FLAT1),), (("X", FLAT1), ("Y", FLAT1))
    bodies = [
        (x1, Difference(D, X), ast.empty_like(D)),
        (x1, Difference(Product(D, D), Product(X, D)), Product(P, P)),
        (xy, Difference(D, X), Difference(D, Y)),
    ]
    db = Database(("a", "b", "c"), {"P": Rel(FLAT1, [("a",), ("c",)])})
    for binders, lhs, rhs in bodies:
        yield Solve(binders, lhs, rhs), db


def _solve_loop(node, db, budget, quota):
    """Each block's ``Blocks.scan`` (hit mask, units gained, peak and stop
    candidate) as the kept program of the solve ``node`` runs up to
    ``quota``, as ``solve_nonempty`` runs it with a quota of 0, and what the
    loop leaves: its runs, units, live and peak totals and metrics, or the
    refusal's kind, path, text and solve counts and the peak total."""
    scans = []
    scan = bitslice.Blocks.scan

    def recorded(self, *args):
        scans.append(scan(self, *args))
        return scans[-1]

    ctx, env = evaluator._context(db, budget)
    bitslice.Blocks.scan = recorded
    try:
        found = evaluator._program(node, db).run(env, ctx, quota)
    except evaluator.BudgetExceeded as exc:
        return scans, (exc.which, exc.path, str(exc), exc.solve, ctx.peak)
    finally:
        bitslice.Blocks.scan = scan
    return scans, (found._runs, found._size, ctx.live, ctx.peak, ctx.metrics())


@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 2])
def test_top_candidate_and_counters_agree(block_bits, monkeypatch):
    # reading the peak at tile tops gives each block's hit mask, units
    # gained, peak and stop candidate, and the solve's outcome, that the
    # vertical counters give: under quotas of 0, 1, half the solutions and
    # all but one, and with no quota under every space cap from 60 below the
    # peak to 60 above it, the refusal's kind, path, text, counts and peak.
    # A run in which no block was read at its tile tops ran the counters'
    # code alone, so only the others run again on them.  On the bodies of
    # _declining_cases no block is read at its tile tops.
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    tile_read = bitslice._tile_read
    taken = []

    def recorded(*args):
        read = tile_read(*args)
        taken.append(read is not None)
        return read

    def agree(node, db, budget, quota):
        monkeypatch.setattr(bitslice, "_tile_read", recorded)
        taken.clear()
        done = _solve_loop(node, db, budget, quota)
        read = any(taken)
        if read:
            monkeypatch.setattr(bitslice, "_tile_read", lambda *args: None)
            assert _solve_loop(node, db, budget, quota) == done, (node, budget, quota)
        return done, read

    # blocks of 4 candidates take the solves of at most 2^6 candidates
    small = block_bits == 2
    flat = [(node, db) for _, node, db, _ in _flat_cases(set())
            if not small or sum(len(db.atoms) ** t.arity for _, t in node.binders) <= 6]  # fmt: skip
    fixed = list(_fixed_flat_cases(("a", "b") if small else ("a", "b", "c")))
    declining = list(_declining_cases())
    tags = set()
    for node, db in flat + fixed + declining:
        found = evaluator.evaluate(node, db)[1].solves[0].solutions_found
        for quota in sorted({0, 1, found // 2, max(found - 1, 0)}):
            if agree(node, db, EvalBudget(), quota)[1] and quota < found:
                tags.add("quota stop")
        done, read = agree(node, db, EvalBudget(), 1 << 30)
        peak = done[1][3]
        for cap in range(max(1, peak - 60), peak + 61):
            agree(node, db, EvalBudget(max_space_units=cap), 1 << 30)
        if read:
            tags.add(len(node.binders))
        if (node, db) in declining:
            assert taken and not read
            tags.add("declined")
    assert {1, 2, "declined", "quota stop"} <= tags
