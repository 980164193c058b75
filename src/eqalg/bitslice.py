"""Bit-sliced evaluation of flat solve bodies: a block of candidates at once.

A solve whose binders and body nodes all have flat types (see
``evaluator.Plan.solve``) evaluates its body once per block of candidates,
as in Biham's bit-sliced DES (FSE 1997), in place of once per candidate.
``compile_sliced`` compiles a side to closures over blocks, at the row
widths and with the joins of the evaluation's plan, and ``Blocks.scan``
evaluates a block's sides, solutions and metering, then walks its candidates
in order, a stretch at a time: the units kept live by the solutions so far
change only at a solution, so a block with few solutions goes from one to
the next, and one with more takes a prefix sum on the bit planes.  Either
gives each candidate's live total, and with it the peak, the solutions and
the stop candidate.  Metering stays exact: every node's row count is a
per-candidate counter, and the live total of each metering point of literal
evaluation that can be the highest is composed from them.
"""

from __future__ import annotations

from . import ast
from .model import _FEW_BITS, _bits, row_picker

# A block is 2^b consecutive candidates of a solve, those whose counter
# values agree above bit b; candidate c of a block is the one whose low b
# counter bits are c.  Over a block, a flat value maps each row to its
# slice, an int whose bit c says that candidate c holds the row; a row that
# no candidate holds is left out, so no slice is 0.  A quantity that differs
# per candidate, such as a node's row count, is a vertical counter: a list
# of bit planes, lowest first, whose plane i holds bit i of every
# candidate's value.  The empty list is 0, and zero planes on top are
# allowed.

# The one block-size constant.  A block pays a fixed interpretive cost, a
# closure and a few vertical-counter calls per node, so larger blocks pay it
# less often: one tc_powerset query (2^16 candidates) took 25, 10, 5.5 and
# 4.2 ms at blocks of 2^10, 2^12, 2^14 and 2^16 candidates (medians of 40
# alternated passes in one process, 2-CPU x86 VM, Python 3.11).  At 2^16 a
# slice is 8 KB, that query's largest value (64 join rows) about 0.5 MB, and
# its traced allocations peak at 1.9 MB (0.6 MB at 2^14).  A block is also
# the most candidates a space refusal evaluates again.  Both engines walk a
# solve in blocks of this many counter bits (``evaluator._compile_solve``).
BLOCK_BITS = 16


def _vadd(a: list, b: list) -> list:
    """The vertical counter of ``a + b``, by ripple-carry addition."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = []
    carry = 0
    for x, y in zip(a, b):
        s = x ^ y
        out.append(s ^ carry)
        carry = (x & y) | (s & carry)
    i = len(b)
    while carry and i < len(a):
        x = a[i]
        out.append(x ^ carry)
        carry &= x
        i += 1
    out += a[i:]
    if carry:
        out.append(carry)
    return out


def _vscale(a: list, w: int) -> list:
    """The vertical counter of ``a * w`` for a constant ``w >= 1``."""
    out: list = []
    j = 0
    while w:
        if w & 1:
            out = _vadd(out, [0] * j + a if a else a)
        w >>= 1
        j += 1
    return out


def _vmul(a: list, b: list) -> list:
    """The vertical counter of ``a * b``, by shift and add."""
    out: list = []
    for j, y in enumerate(b):
        if y:
            out = _vadd(out, [0] * j + [x & y for x in a])
    return out


def _vmax(a: list, b: list, keep: int) -> list:
    """The vertical counter of ``max(a, b)``; ``keep`` has a bit for every
    candidate of the block.  An operand at least the other for every
    candidate of ``keep`` is returned as it is."""
    if not a:
        return b
    if not b:
        return a
    k = max(len(a), len(b))
    xs = a + [0] * (k - len(a))
    ys = b + [0] * (k - len(b))
    gt = 0  # candidates with a > b in the planes seen so far
    tie = keep  # candidates with a = b in the planes seen so far
    for x, y in zip(reversed(xs), reversed(ys)):
        d = (x ^ y) & tie
        if d:
            gt |= d & x
            tie ^= d
            if not tie:
                break
    if not gt:
        return b
    if gt | tie == keep:
        return a
    out = [y ^ ((x ^ y) & gt) for x, y in zip(xs, ys)]
    while out and not out[-1]:
        out.pop()
    return out


def _vconst(n: int, keep: int) -> list:
    """The vertical counter with the value ``n`` for every candidate."""
    return [keep if n >> i & 1 else 0 for i in range(n.bit_length())]


def _vcount(slices) -> list:
    """The vertical counter of how many of ``slices`` hold each candidate.

    A carry-save reduction, as in the Harley-Seal population count (Mula,
    Kurz and Lemire, Comput. J. 2018): at each weight, one full adder per
    two slices adds them into the running sum plane and passes their carry,
    when not 0, to the next weight.  So there is no zero plane on top.
    """
    planes: list = []
    level = slices
    while True:
        it = iter(level)
        acc = next(it, 0)
        carries = []
        for b in it:
            c = next(it, 0)
            u = acc ^ b
            carry = (acc & b) | (u & c)
            acc = u ^ c
            if carry:
                carries.append(carry)
        if not carries:
            if acc:
                planes.append(acc)
            return planes
        planes.append(acc)
        level = carries


def _vmax_in(a: list, mask: int) -> int:
    """The largest value of ``a`` over the candidates of ``mask``, 0 for none."""
    out = 0
    for i in range(len(a) - 1, -1, -1):
        m = mask & a[i]
        if m:
            mask = m
            out |= 1 << i
    return out


def _vabove(a: list, t: int, mask: int) -> int:
    """The candidates of ``mask`` whose value of ``a`` exceeds ``t``: all of
    them for ``t < 0``, since no value is negative."""
    if t < 0:
        return mask
    if t >> len(a):
        return 0
    gt = 0
    tie = mask
    for i in range(len(a) - 1, -1, -1):
        x = a[i]
        if t >> i & 1:
            tie &= x
        else:
            gt |= tie & x
            tie ^= tie & x
    return gt


def _vat(a: list, c: int) -> int:
    """The value of ``a`` for candidate ``c``."""
    return sum((p >> c & 1) << i for i, p in enumerate(a))


def _vprefix(a: list, n: int) -> list:
    """The vertical counter of the sum of ``a`` over the candidates before
    each candidate 0..n, for ``a`` zero from candidate n on.

    The sum is 0 up to the first candidate where ``a`` is not zero and the
    total past the last one.  In between it is the scan of Hillis and Steele
    (CACM 1986), shifted up one candidate: round d adds to each candidate's
    partial sum the one d candidates before it, for d = 1, 2, 4, ... up to
    the distance between the two, so at most log2(n) rounds.
    """
    nonzero = 0
    for p in a:
        nonzero |= p
    if not nonzero:
        return []
    first = (nonzero & -nonzero).bit_length() - 1
    last = nonzero.bit_length() - 1
    width = last - first
    span = (2 << width) - 1
    s = [p >> first for p in a]
    d = 1
    while d <= width:
        s = _vadd(s, [p << d & span for p in s])
        d <<= 1
    after = (2 << n) - (4 << last)  # candidates last + 2 .. n
    return [p << (first + 1) | (after if p >> width & 1 else 0) for p in s]


class _Refused(Exception):
    """A candidate of a block, the first one in ``args[0]``, would exceed the
    space cap at a product."""


def _sliced_union(a: dict, b: dict) -> dict:
    out = {**a, **b}
    for r in a.keys() & b.keys():
        out[r] = a[r] | b[r]
    return out


def _sliced_difference(a: dict, b: dict) -> dict:
    out = dict(a)
    for r in a.keys() & b.keys():
        s = a[r]
        s ^= s & b[r]
        if s:
            out[r] = s
        else:
            del out[r]
    return out


def _sliced_product(a: dict, b: dict) -> dict:
    return {x + y: u for x, s in a.items() for y, t in b.items() if (u := s & t)}


def _sliced_joiner(lk: int, rk: int):
    """The join kernel over slices: each left row meets the right rows whose
    column ``rk`` equals its column ``lk``, and a joined row's slice is the
    AND of theirs."""

    def join(a: dict, b: dict) -> dict:
        index: dict = {}
        for y, t in b.items():
            index.setdefault(y[rk], []).append((y, t))
        return {x + y: u for x, s in a.items() for y, t in index.get(x[lk], ()) if (u := s & t)}

    return join


def _sliced_projector(indices):
    """The projection kernel over slices: a row's slice joins its image's."""

    def project(a: dict, _pick=row_picker(indices)) -> dict:
        out: dict = {}
        for r, s in a.items():
            k = _pick(r)
            t = out.get(k)
            out[k] = s if t is None else t | s
        return out

    return project


def _sliced_selector(i: int, equal: bool, j: int):
    """The selection kernel over slices, for 0-based columns i and j."""
    if equal:
        return lambda a: {r: s for r, s in a.items() if r[i] == r[j]}
    return lambda a: {r: s for r, s in a.items() if r[i] != r[j]}


def compile_sliced(e: ast.Expr, path: str, plan):
    """Compile a flat expression into ``fn(env, keep, room) -> (value,
    count, size, peak)`` over a block of candidates.

    ``env`` maps each name to its value over the block and the vertical
    counters of its row count and of its size, both computed once per
    block; ``keep`` has a bit for each candidate of the block and ``room``
    is the space the cap leaves above the live units at the block's start.
    ``count`` and ``size`` are the vertical counters of the result's rows
    and units, and ``peak`` that of the most units live at once while the
    node runs, from its start.  An operator node runs its operands, then
    ``build`` on their values, then each level of ``levels`` (a kernel or
    None, and the width of its rows), and literal evaluation charges each
    result while the one below it is live.  A product's count is its
    operands' counts multiplied, known before any row is built, and a
    candidate that would exceed the cap there raises ``_Refused``.  Widths and
    joins come from ``plan`` (``evaluator.Plan``): a join never builds the
    product, as in ``evaluator._compile_join``.
    """
    if isinstance(e, (ast.Name, ast.Domain)):

        def leaf(env, keep, room, _nm=getattr(e, "name", "D")):
            v, c, s = env[_nm]
            return v, c, s, s

        return leaf

    w = plan.width(path)
    product = 0  # the width of the product rows, for a product or a join
    levels = [(None, w)]
    join = plan.join(e, path)
    if join is not None:
        indices, e, path, lk, rk, selects, product = join
        build = _sliced_joiner(lk, rk)
        levels = [(None if i is None else _sliced_selector(i, eq, j), product)
                  for i, eq, j, _ in selects]  # fmt: skip
        if indices is not None:
            levels.append((_sliced_projector(indices), w))
    elif isinstance(e, ast.Product):
        product, build, levels = w, _sliced_product, []
    elif isinstance(e, ast.Project):
        build = _sliced_projector(e.indices)
    elif isinstance(e, ast.Select):
        build = _sliced_selector(e.i - 1, e.op == "=", e.j - 1)
    else:
        build = _sliced_union if isinstance(e, ast.Union) else _sliced_difference
    # each operand's closure, and whether it is a leaf, whose peak is its
    # size: its metering point is then below the product point or the first
    # level, which adds every operand's size, so it is not taken
    children = [(getattr(e, label), ast.child_path(path, label)) for label in e.labels]
    fs = [(compile_sliced(x, p, plan), isinstance(x, (ast.Name, ast.Domain))) for x, p in children]

    def run(env, keep, room, _fs=fs, _product=product, _build=build, _levels=levels):
        values, counts, live, peak = [], [], [], []
        for f, leaf in _fs:
            v, c, s, p = f(env, keep, room)
            if not leaf:
                peak = _vmax(peak, _vadd(live, p), keep)
            live = _vadd(live, s)
            values.append(v)
            counts.append(c)
        if _product:
            c = _vmul(*counts)
            s = _vscale(c, _product)
            live = _vadd(live, s)
            over = _vabove(live, room, keep)
            if over:
                raise _Refused((over & -over).bit_length() - 1)
            peak = _vmax(peak, live, keep)
            live = s
        v = _build(*values)
        for kernel, w in _levels:
            if kernel is not None:
                v = kernel(v)
            c = _vcount(v.values())
            s = _vscale(c, w)
            peak = _vmax(peak, _vadd(live, s), keep)
            live = s
        return v, c, s, peak

    return run


class Blocks:
    """One run of a flat solve over the blocks of ``2^bits`` candidates that
    the solve loop walks, ``bits`` being at most the counter's width."""

    __slots__ = ("sides", "free", "binders", "bits", "patterns")

    def __init__(self, sliced, env, consts, names, space, bits: int) -> None:
        *gs, free = sliced
        self.sides = [(g, None if c is None else c.rows) for g, c in zip(gs, consts)]
        self.free = [(nm, env[nm].rows, env[nm].rtype.row_base_size) for nm in free]
        # each binder's universe and its first row's counter bit, from Candidates
        self.binders = [(nm, u, shift, t.row_base_size)
                        for nm, (t, u, shift, _, _) in zip(names, space.binders)]  # fmt: skip
        width = sum(len(u) for _, u, _, _ in self.binders)
        self.bits = bits
        # bit c of patterns[j] is bit j of c, then None for the bits fixed per
        # block.  The top pattern is the block's upper half; below it,
        # pattern j is pattern j + 1 XOR itself shifted down by 2^j, since
        # bit j + 1 of c changes on adding 2^j exactly when bit j of c is set
        self.patterns = [None] * width
        if bits:
            half = 1 << bits - 1
            p = ((1 << half) - 1) << half
            self.patterns[bits - 1] = p
            for j in range(bits - 2, -1, -1):
                p ^= p >> (1 << j)
                self.patterns[j] = p

    def scan(self, k: int, live0: int, cap: int, quota: int):
        """``_scan`` of block ``k``, whose stop candidate the caller tests:
        a refused candidate or the solution past ``quota``.  Where
        a candidate would exceed the cap at a product, the candidates before
        it are evaluated again without it, so no product is built for a
        candidate that is refused.  The solutions come as a hit mask, bit c
        for candidate c of the block."""
        keep = (1 << (1 << self.bits)) - 1
        refuse = None
        while keep:
            try:
                found = self._evaluate(k, keep, cap - live0)
            except _Refused as exc:
                refuse = exc.args[0]
                keep &= (1 << refuse) - 1
            else:
                return _scan(*found, keep, live0, cap, quota, refuse)
        return 0, 0, live0, refuse

    def _evaluate(self, k: int, keep: int, room: int):
        """``(hit, csize, body)`` for the candidates ``keep`` of block ``k``:
        the solutions, and the vertical counters of a candidate's size and
        of the most units live at once while its sides run, above its own."""
        env = {nm: ({r: keep for r in rows}, _vconst(len(rows), keep), _vconst(len(rows) * w, keep))
               for nm, rows, w in self.free}  # fmt: skip
        # the slice of each counter bit: a pattern, or all or none of keep
        slices = [
            keep & (p if p is not None else keep * (k >> j & 1))
            for j, p in enumerate(self.patterns, -self.bits)
        ]
        csize: list = []
        for nm, universe, shift, w in self.binders:
            value = {row: s for row, s in zip(universe, slices[shift:]) if s}
            count = _vcount(value.values())
            size = _vscale(count, w)
            env[nm] = (value, count, size)
            csize = _vadd(csize, size)
        # a side that mentions no bound variable is charged once per solve
        (vl, _, sl, pl), (vr, _, _, pr) = [
            g(env, keep, room) if g else ({r: keep for r in rows}, [], [], [])
            for g, rows in self.sides
        ]
        differ = 0
        for r in vl.keys() | vr.keys():
            differ |= vl.get(r, 0) ^ vr.get(r, 0)
        # a side's peak is never below its size, so with no right side run
        # the left side's peak is the body's
        body = _vmax(pl, _vadd(sl, pr), keep) if pr else pl
        return keep ^ differ, csize, body


def _scan(hit, csize, body, keep, live0, cap, quota, refuse):
    """Walk a block's candidates in order, as the candidate loop would.

    ``live0`` is the live total before the block.  Candidate c is charged
    ``csize(c)`` units, its sides then keep up to ``body(c)`` more live at
    once, and a solution keeps its row of ``1 + csize(c)`` units live while
    the candidate is, and after it.  So candidate c has ``live0 + S(c) +
    top(c)`` units live at its highest, where ``S(c)`` sums the units kept
    live by the solutions before it, and ``top(c)`` is ``csize(c) +
    body(c)``, or ``2·csize(c) + 1`` for a solution if that is more.  The
    walk covers the candidates of ``keep`` (not 0) up to the stop candidate:
    the first refused one or the solution past ``quota``, whichever comes
    first, so with a quota of 0 the first solution, as ``solve_nonempty``
    asks.  ``refuse`` is None or a candidate after ``keep`` known to be
    refused.  Returns ``(hit, gained, peak, refuse)``: the hit mask of the
    solutions before the stop candidate, the units they keep live, the
    highest live total of the candidates before the stop candidate (the
    test of the stop candidate adds its own), and the stop candidate or
    None.

    ``S`` is a step function with one step per solution.  With at most
    ``model._FEW_BITS`` solutions within the quota, the walk goes from one
    solution to the next: in each segment ``S`` is a constant, so one
    threshold and one maximum over the segment's candidates find its first
    refusal and its peak, and a solution's own charge is a scalar.  With
    more, ``S`` is one prefix sum on the bit planes (``_vprefix``).
    Solutions are listed only to find the one past a nonzero quota.
    """
    end = keep.bit_length()  # the candidates walked are those before end
    if hit.bit_count() > quota:
        refuse = _bits(hit, end)[quota] if quota else (hit & -hit).bit_length() - 1
        hit &= (1 << refuse) - 1
        end = refuse
    room = cap - live0
    if hit.bit_count() > _FEW_BITS:
        gain = [p & hit for p in _vadd(csize, [hit])]
        s = _vprefix(gain, end)
        high = _vadd(s, _vadd(csize, _vmax(body, gain, keep)))
        over = _vabove(high, room, (1 << end) - 1)
        if over:
            refuse = end = (over & -over).bit_length() - 1
            hit &= (1 << refuse) - 1
        return hit, _vat(s, end), live0 + _vmax_in(high, (1 << end) - 1), refuse
    top = _vadd(csize, body)
    high = gained = lo = 0
    rest = hit  # the solutions not yet walked
    while True:
        # the segment: the candidates from lo up to the next solution h, or
        # up to end past the last one
        h = (rest & -rest).bit_length() - 1
        seg = (1 << (h + 1 if rest else end)) - (1 << lo)
        over = _vabove(top, room - gained, seg)
        own = 0
        if rest:
            c = _vat(csize, h)
            own = gained + 2 * c + 1
            if own > room:
                over |= 1 << h
        if over:
            refuse = (over & -over).bit_length() - 1
            hit &= (1 << refuse) - 1
            seg &= (1 << refuse) - 1
            own = 0
        high = max(high, own, gained + _vmax_in(top, seg))
        if over or not rest:
            return hit, gained, live0 + high, refuse
        gained += c + 1
        lo = h + 1
        rest ^= 1 << h
