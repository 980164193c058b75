"""Bit-sliced evaluation of flat solve bodies: a block of candidates at once.

A solve whose binders and body nodes all have flat types (see
``evaluator.Plan.solve``) evaluates its body once per block of candidates,
as in Biham's bit-sliced DES (FSE 1997), in place of once per candidate.
``compile_sliced`` compiles a side to closures over blocks, at the row
widths and with the joins of the evaluation's plan, and ``Blocks.scan``
evaluates a block's sides and solutions, then meters the candidates it
walks, those before its stop candidate, one of two ways.  Each metering
point of literal evaluation has a scalar bound, the sum of the bounds of
the values live there, known once the block's values are built
(``_Size``).  Where no bound could pass the space cap, and every point
that could pass the peak holds only values that grow with the binders, the
walked candidates split into aligned tiles, and each tile's top candidate
has the highest live total of its tile: the peak is read at those tops as
scalars, off the slices, and no vertical counter is built (``_tile_read``).
Any other block counts every point per candidate, and one prefix sum on
the bit planes gives each candidate's live total, and with it the peak
and the first refused candidate (``_scan``).
"""

from __future__ import annotations

from . import ast
from .model import _bits, row_picker

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
# closure per node and the reads of its tile tops or its vertical
# counters, so larger blocks pay it less often: one tc_powerset query (2^16
# candidates) took 6.1-6.5, 2.1-2.2, 1.03-1.06 and 1.02-1.03 ms at blocks
# of 2^10, 2^12, 2^14 and 2^16 candidates, 2^16 being the fastest in each
# of three processes (medians of 40 alternated passes in one process, the
# collector paused, 2-CPU x86 VM, Python 3.11).  At 2^16 a slice is 8 KB,
# that query's largest value (64 join rows) about 0.5 MB, and its traced
# allocations peak at 1.5 MB (0.5 MB at 2^14).  A block is also the most
# candidates a space refusal evaluates again.  Both engines walk a solve in
# blocks of this many counter bits (``evaluator._compile_solve``).
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


class _Size:
    """The units one value of a side holds over a block: at most ``bound``
    for any candidate, a scalar known as soon as the value is, and the
    vertical counter ``size()``, built on first use.

    ``rows`` bounds the value's row count: the number of rows in its slices
    (a dict), or for a product, whose rows are not built when it is charged,
    the product of its two operands' bounds (a pair of ``_Size``).  A free
    name's row counter, the same for every candidate, is given up front.
    ``grows`` says that the value only gains rows as the binders do (see
    ``compile_sliced``), so that no candidate of a tile has more than the
    tile's top candidate (``_tile_read``).
    """

    __slots__ = ("rows", "width", "grows", "_of", "_count", "_size", "_t", "_at")

    def __init__(self, rows: int, width: int, of, grows=True, count: list | None = None) -> None:
        self.rows = rows
        self.width = width
        self.grows = grows
        self._of = of
        self._count = count
        self._size = None
        self._t = -1  # the candidate whose row count _at holds
        self._at = 0

    @property
    def bound(self) -> int:
        return self.rows * self.width

    def rows_at(self, t: int, bit: int) -> int:
        """The value's row count for candidate ``t``, read on first use per
        ``t``: the slices that hold bit ``t``.  ``bit`` is ``1 << t`` or 0:
        ``s & bit`` reads up to bit ``t`` of a slice and ``s >> t`` from it
        up, so the caller passes it for a ``t`` low in the block."""
        if self._t != t:
            of = self._of
            if isinstance(of, tuple):
                n = of[0].rows_at(t, bit) * of[1].rows_at(t, bit)
            elif of is None:
                n = self.rows
            elif bit:
                n = sum(1 for s in of.values() if s & bit)
            else:
                n = sum(s >> t & 1 for s in of.values())
            self._t, self._at = t, n
        return self._at

    def count(self) -> list:
        """The vertical counter of the value's rows."""
        if self._count is None:
            of = self._of
            if isinstance(of, tuple):
                self._count = _vmul(of[0].count(), of[1].count())
            else:
                self._count = _vcount(of.values())
        return self._count

    def size(self) -> list:
        if self._size is None:
            self._size = _vscale(self.count(), self.width)
        return self._size


def _total(sizes) -> list:
    """The vertical counter of the units of ``sizes`` (``_Size``) together."""
    out: list = []
    for s in sizes:
        out = _vadd(out, s.size())
    return out


def compile_sliced(e: ast.Expr, path: str, plan, bound):
    """Compile a flat expression into ``(fn, grows)``, with ``fn(env, keep,
    room) -> (value, size, points)`` over a block of candidates.

    ``env`` maps each name to its value over the block and its ``_Size``;
    ``keep`` has a bit for each candidate of the block and ``room`` is the
    space the cap leaves above the live units at the block's start.
    ``size`` is the result's ``_Size``, and ``points`` lists the metering
    points at which the node can be at its highest, from its start: each is
    the tuple of the ``_Size`` of the values live there.  An operator node
    runs its operands, then ``build`` on their values, then each level of
    ``levels`` (a kernel or None, and the width of its rows), and literal
    evaluation charges each result while the one below it is live.  A
    product's count is its operands' counts multiplied, known before any row
    is built; where the bounds of the values live there could pass ``room``,
    a candidate that would exceed the cap raises ``_Refused``.  No point
    builds a vertical counter here: ``Blocks.scan`` reads the points at tile
    tops or counts them all.
    Widths and joins come from ``plan`` (``evaluator.Plan``): a join never
    builds the product, as in ``evaluator._compile_join``.

    ``grows`` says that the expression's value, and each value it builds,
    only gains rows as the binders, the names of ``bound``, gain rows: a
    name or ``D`` does, and union, product, select and project do when
    their operands do (Abiteboul, Hull and Vianu, Foundations of Databases,
    1995), and a difference when its left operand does and its right one
    mentions no bound variable (``evaluator.Plan.free``).  It is decided
    once per path, and each value's ``_Size`` carries it.
    """
    if isinstance(e, (ast.Name, ast.Domain)):

        def leaf(env, keep, room, _nm=getattr(e, "name", "D")):
            v, s = env[_nm]
            return v, s, [(s,)]

        return leaf, True

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
    # each operand's closure, and whether it is a leaf, whose one point is
    # its size: that point is below the product point or the first level,
    # which adds every operand's size, so it is not taken
    children = [(getattr(e, label), ast.child_path(path, label)) for label in e.labels]
    fs, grows = [], True
    for x, p in children:
        f, g = compile_sliced(x, p, plan, bound)
        fs.append((f, isinstance(x, (ast.Name, ast.Domain))))
        grows = grows and g
    if isinstance(e, ast.Difference) and not plan.free[id(e.right)].isdisjoint(bound):
        grows = False

    def run(env, keep, room, _fs=fs, _product=product, _build=build, _levels=levels, _grows=grows):
        values, live, points = [], [], []
        for f, leaf in _fs:
            v, s, ps = f(env, keep, room)
            if not leaf:
                points += [(*live, *p) for p in ps]
            live.append(s)
            values.append(v)
        if _product:
            a, b = live
            s = _Size(a.rows * b.rows, _product, (a, b), _grows)
            live.append(s)
            if sum(x.bound for x in live) > room:
                over = _vabove(_total(live), room, keep)
                if over:
                    raise _Refused((over & -over).bit_length() - 1)
            points.append(tuple(live))
            live = [s]
        v = _build(*values)
        for kernel, w in _levels:
            if kernel is not None:
                v = kernel(v)
            s = _Size(len(v), w, v, _grows)
            points.append((*live, s))
            live = [s]
        return v, s, points

    return run, grows


def _kept(charge, h: int) -> int:
    """The units that the solutions of hit mask ``h`` keep live, ``charge``
    being the ``_Size`` of the binders: their count plus, per binder row,
    its width times the solutions that hold it."""
    if not h:
        return 0
    out = h.bit_count()
    for s in charge:
        out += s.width * sum((x & h).bit_count() for x in s._of.values())
    return out


def _tile_read(points, charge, hit, keep, end, room):
    """``(gained, high)`` of the candidates before ``end``, read at tile
    tops with no vertical counter, or None where that is not exact.

    ``points`` and ``charge`` are those of the candidates ``keep``
    (``Blocks._evaluate``), and ``hit`` the solutions before ``end``.  The
    candidates split into aligned tiles, one per set bit of ``end``, each of
    candidates that agree above that bit.  A tile's top candidate t holds
    every binder row that any candidate of the tile holds, so each value
    that grows with the binders (``_Size.grows``) is at its highest there,
    and ``S(c)``, the units the solutions before candidate c keep live
    (``_kept``), never falls in counter order.  t's live total above the
    block's start is ``S(t)`` plus ``csize(t) + body(t)``, or ``2·csize(t)
    + 1`` for a solution if that is more, each value read off its slices at
    bit t.  No candidate c of the tile has more: ``S(c) <= S(t)``,
    ``csize(c) <= csize(t)``, a point whose values all grow is at most its
    value at t, and a solution c before t keeps ``1 + csize(c)`` of
    ``S(t)``, which covers its own row.  ``high`` is the highest of the
    tops' totals and ``gained`` is ``S(end)``.  The read declines where a
    point or a solution's own row could pass ``room``, since a refusal may
    then depend on any candidate, or where a point that holds a value that
    can shrink could pass ``high``: a candidate has at most ``S + C`` units
    live beside it, ``C`` being the binders' bounds and ``S`` at most ``1 +
    C`` per solution.
    """
    c = sum(s.bound for s in charge)
    reach = hit.bit_count() * (1 + c) + c  # S + C
    bounds = [sum(s.bound for s in p) for p in points]
    if reach + max(max(bounds, default=0), c + 1) > room:
        return None
    half = keep.bit_length() >> 1
    gained = kept = _kept(charge, hit)
    high = 0
    e = end
    while e:  # the tile before e, whose top is e - 1 and whose S(e) is kept
        t = e - 1
        bit = 1 << t if t < half else 0
        own = sum(s.rows_at(t, bit) * s.width for s in charge)
        body = max((sum(s.rows_at(t, bit) * s.width for s in p) for p in points), default=0)
        last = hit >> t & 1  # 1 when t is a solution
        high = max(high, kept - last * (own + 1) + max(own + body, last * (2 * own + 1)))
        e &= e - 1
        kept = _kept(charge, hit & ((1 << e) - 1))
    for p, bound in zip(points, bounds):
        if reach + bound > high and not all(s.grows for s in p):
            return None
    return gained, high


def counter_patterns(bits: int) -> list:
    """The slices of the low ``bits`` counter bits over a block of
    ``2^bits`` candidates: bit c of pattern j is bit j of c.

    The top pattern is the block's upper half; below it, pattern j is
    pattern j + 1 XOR itself shifted down by 2^j, since bit j + 1 of c
    changes on adding 2^j exactly when bit j of c is set.  They depend on
    ``bits`` alone, so a solve's program keeps them per block size
    (``evaluator._compile_solve``).
    """
    patterns = [0] * bits
    if bits:
        half = 1 << bits - 1
        p = ((1 << half) - 1) << half
        patterns[bits - 1] = p
        for j in range(bits - 2, -1, -1):
            p ^= p >> (1 << j)
            patterns[j] = p
    return patterns


class Blocks:
    """One run of a flat solve over the blocks of ``2^bits`` candidates that
    the solve loop walks, ``bits`` being at most the counter's width and
    ``patterns`` the ``counter_patterns`` of ``bits``."""

    __slots__ = ("sides", "free", "binders", "bits", "patterns")

    def __init__(self, sliced, env, consts, names, space, patterns: list) -> None:
        *gs, free = sliced
        self.sides = [(g, None if c is None else c.rows) for g, c in zip(gs, consts)]
        self.free = [(nm, env[nm].rows, env[nm].rtype.row_base_size) for nm in free]
        # each binder's universe and its first row's counter bit, from Candidates
        self.binders = [(nm, u, shift, t.row_base_size)
                        for nm, (t, u, shift, _, _) in zip(names, space.binders)]  # fmt: skip
        width = sum(len(u) for _, u, _, _ in self.binders)
        self.bits = len(patterns)
        # a pattern per counter bit of a block, then None for the bits fixed
        # per block
        self.patterns = patterns + [None] * (width - self.bits)

    def scan(self, k: int, live0: int, cap: int, quota: int):
        """``(hit, gained, peak, stop)`` of block ``k``: the hit mask of the
        solutions before its stop candidate, bit c for candidate c of the
        block, the units they keep live, the highest live total of the
        candidates before the stop (the test of the stop candidate adds its
        own), and the stop candidate, which the caller tests, or None: the
        first refused candidate or the solution past ``quota``, whichever
        comes first, so with a quota of 0 the first solution, as
        ``solve_nonempty`` asks.  Where a candidate would exceed the cap at
        a product, the candidates before it are evaluated again without it,
        so no product is built for a candidate that is refused.  The
        candidates before the first stop known are metered at tile tops
        (``_tile_read``) or, where that is not exact, by vertical counters
        (``_scan``)."""
        keep = (1 << (1 << self.bits)) - 1
        refuse = None
        room = cap - live0
        while keep:
            try:
                hit, charge, points = self._evaluate(k, keep, room)
            except _Refused as exc:
                refuse = exc.args[0]
                keep &= (1 << refuse) - 1
            else:
                hit, end, stop = _walked(hit, keep, quota, refuse)
                read = _tile_read(points, charge, hit, keep, end, room)
                if read is not None:
                    return hit, read[0], live0 + read[1], stop
                body: list = []
                for p in points:
                    body = _vmax(body, _total(p), keep)
                return _scan(hit, _total(charge), body, end, live0, cap, stop)
        return 0, 0, live0, refuse

    def _evaluate(self, k: int, keep: int, room: int):
        """``(hit, charge, points)`` for the candidates ``keep`` of block
        ``k``: the solutions, the ``_Size`` of each binder, whose sum is a
        candidate's own charge, and the metering points of its sides, from
        above that charge (see ``compile_sliced``)."""
        env = {nm: ({r: keep for r in rows},
                    _Size(len(rows), w, None, count=_vconst(len(rows), keep)))
               for nm, rows, w in self.free}  # fmt: skip
        # the slice of each counter bit: a pattern, or all or none of keep
        slices = [
            keep & (p if p is not None else keep * (k >> j & 1))
            for j, p in enumerate(self.patterns, -self.bits)
        ]
        charge = []
        for nm, universe, shift, w in self.binders:
            value = {row: s for row, s in zip(universe, slices[shift:]) if s}
            env[nm] = (value, _Size(len(value), w, value))
            charge.append(env[nm][1])
        # a side that mentions no bound variable is charged once per solve
        (vl, sl, pl), (vr, _, pr) = [
            g(env, keep, room) if g else ({r: keep for r in rows}, None, [])
            for g, rows in self.sides
        ]
        differ = 0
        for r in vl.keys() | vr.keys():
            differ |= vl.get(r, 0) ^ vr.get(r, 0)
        # the right side runs with the left side's value live
        if sl is not None:
            pr = [(sl, *p) for p in pr]
        return keep ^ differ, charge, pl + pr


def _walked(hit: int, keep: int, quota: int, refuse):
    """``(hit, end, stop)`` of a block whose candidates ``keep`` are
    evaluated: the walk covers the candidates before ``end`` and stops at
    ``stop``, the solution past ``quota`` or else ``refuse``, None or a
    refused candidate after ``keep``, and ``hit`` keeps the solutions before
    it.  Solutions are listed only to find the one past a nonzero quota."""
    end = keep.bit_length()
    if hit.bit_count() <= quota:
        return hit, end, refuse
    stop = _bits(hit, end)[quota] if quota else (hit & -hit).bit_length() - 1
    return hit & ((1 << stop) - 1), stop, stop


def _scan(hit, csize, body, end, live0, cap, stop):
    """``Blocks.scan``'s four for the candidates before ``end``, walked in
    order on vertical counters, as the candidate loop would walk them.

    ``live0`` is the live total before the block and ``hit`` the solutions
    before ``end``.  Candidate c is charged ``csize(c)`` units, its sides
    then keep up to ``body(c)`` more live at once, and a solution keeps its
    row of ``1 + csize(c)`` units live while the candidate is, and after it.
    So candidate c has ``live0 + S(c) + top(c)`` units live at its highest,
    where ``S(c)``, one prefix sum on the bit planes (``_vprefix``), sums
    the units kept live by the solutions before it, and ``top(c)`` is
    ``csize(c) + body(c)``, or ``2·csize(c) + 1`` for a solution if that is
    more.  The first candidate whose total passes ``cap`` is the stop
    candidate; with none, ``stop`` is.
    """
    walked = (1 << end) - 1
    gain = [p & hit for p in _vadd(csize, [hit])]
    s = _vprefix(gain, end)
    high = _vadd(s, _vadd(csize, _vmax(body, gain, walked)))
    over = _vabove(high, cap - live0, walked)
    if over:
        stop = end = (over & -over).bit_length() - 1
        walked = (1 << end) - 1
        hit &= walked
    return hit, _vat(s, end), live0 + _vmax_in(high, walked), stop
