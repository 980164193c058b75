"""Bit-sliced evaluation of flat solve bodies: a block of candidates at once.

A solve whose binders and body nodes all have flat types (see
``evaluator._sliceable``) evaluates its body once per block of candidates,
as in Biham's bit-sliced DES (FSE 1997), in place of once per candidate.
``compile_sliced`` compiles a side to closures over blocks, and
``Blocks.scan`` evaluates a block's sides, solutions and metering, then
walks its candidates in order, all at once: one prefix sum on the bit planes
gives each candidate's live total, and with it the peak, the solutions and
the first refused candidate.  Metering stays exact: every node's row count
is a per-candidate counter, and the live total of each metering point of
literal evaluation is composed from them.
"""

from __future__ import annotations

import bisect
import itertools

from . import ast
from .model import row_picker

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
# the most candidates a space refusal evaluates again.
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
    candidate of the block."""
    if not a:
        return b
    if not b:
        return a
    k = max(len(a), len(b))
    a = a + [0] * (k - len(a))
    b = b + [0] * (k - len(b))
    gt = 0  # candidates with a > b in the planes seen so far
    tie = keep  # candidates with a = b in the planes seen so far
    for x, y in zip(reversed(a), reversed(b)):
        d = (x ^ y) & tie
        if d:
            gt |= d & x
            tie ^= d
            if not tie:
                break
    out = [y ^ ((x ^ y) & gt) for x, y in zip(a, b)]
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
    """The largest value of ``a`` over the candidates of ``mask`` (not 0)."""
    out = 0
    for i in range(len(a) - 1, -1, -1):
        m = mask & a[i]
        if m:
            mask = m
            out |= 1 << i
    return out


def _vabove(a: list, t: int, mask: int) -> int:
    """The candidates of ``mask`` whose value of ``a`` exceeds ``t >= 0``."""
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


# the offsets of the set bits of each byte, lowest first, as bytes
_BYTE_BITS = tuple(bytes(i for i in range(8) if b >> i & 1) for b in range(256))

# Up to this many set bits, _bits clears them from the top one at a time:
# at 2^16 bits, 64 of them took 26 us that way and 224 us by the bytes
# (timeit, on the machine of the BLOCK_BITS figures).
_FEW_BITS = 64


def _bits(x: int, n: int) -> list:
    """The positions of the set bits of ``x < 2^n``, lowest first.

    With few set bits, each is cleared from the top in turn.  Otherwise only
    the nonzero bytes of ``x`` are visited, and each gives its bits from
    ``_BYTE_BITS``.
    """
    if x.bit_count() <= _FEW_BITS:
        out = []
        while x:
            top = x.bit_length() - 1
            out.append(top)
            x ^= 1 << top
        out.reverse()
        return out
    data = x.to_bytes((n + 7) >> 3, "little")
    nonzero = itertools.compress(itertools.count(0, 8), data)  # the bytes' first bits
    return [j + i for j in nonzero for i in _BYTE_BITS[data[j >> 3]]]


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


def compile_sliced(e: ast.Expr, path: str, types: dict):
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
    candidate that would exceed the cap there raises ``_Refused``.  A select
    chain over a product joins on its key column, as
    ``evaluator._compile_join`` does, and never builds the product.
    """
    w = types[path].row_base_size
    if isinstance(e, (ast.Name, ast.Domain)):

        def leaf(env, keep, room, _nm=e.name if isinstance(e, ast.Name) else "D"):
            v, c, s = env[_nm]
            return v, c, s, s

        return leaf

    product = 0  # the width of the product rows, for a product or a join
    levels = [(None, w)]
    shape = ast.join_shape(e, path, types) if isinstance(e, (ast.Project, ast.Select)) else None
    if shape is not None:
        indices, e, path, lk, rk, selects = shape
        product = types[path].row_base_size
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
    fs = [compile_sliced(getattr(e, label), ast.child_path(path, label), types)
          for label in e.labels]  # fmt: skip

    def run(env, keep, room, _fs=fs, _product=product, _build=build, _levels=levels):
        values, counts, live, peak = [], [], [], []
        for f in _fs:
            v, c, s, p = f(env, keep, room)
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
    """The candidates of one run of a flat solve, a block at a time."""

    __slots__ = ("sides", "free", "binders", "bits", "patterns")

    def __init__(self, sliced, env, consts, names, space) -> None:
        *gs, free = sliced
        self.sides = [(g, None if c is None else c.rows) for g, c in zip(gs, consts)]
        self.free = [(nm, env[nm].rows, env[nm].rtype.row_base_size) for nm in free]
        # each binder's universe and its first row's counter bit, from Candidates
        self.binders = [(nm, u, shift, t.row_base_size)
                        for nm, (t, u, shift, _, _) in zip(names, space.binders)]  # fmt: skip
        width = sum(len(u) for _, u, _, _ in self.binders)
        self.bits = bits = min(BLOCK_BITS, width)
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

    def scan(self, k: int, live0: int, cap: int, quota: int, early_exit: bool):
        """``_scan`` of block ``k``.  Where a candidate would exceed the cap
        at a product, the candidates before it are evaluated again without
        it, so no product is built for a candidate that is refused."""
        keep = (1 << (1 << self.bits)) - 1
        refuse = None
        while keep:
            try:
                found = self._evaluate(k, keep, cap - live0)
            except _Refused as exc:
                refuse = exc.args[0]
                keep &= (1 << refuse) - 1
            else:
                return _scan(*found, keep, live0, cap, quota, early_exit, refuse)
        return [], 0, 0, refuse

    def _evaluate(self, k: int, keep: int, room: int):
        """``(hit, gain, top)`` for the candidates ``keep`` of block ``k``:
        the solutions, and the vertical counters of the units each solution
        keeps live and of the most units live at once while a candidate is
        tested, from before it is charged."""
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
        hit = keep ^ differ
        # a hit keeps its solution row of 1 + csize units live, then the
        # candidate is released
        gain = [p & hit for p in _vadd(csize, [keep])]
        top = _vadd(csize, _vmax(_vmax(pl, _vadd(sl, pr), keep), gain, keep))
        return hit, gain, top


def _scan(hit, gain, top, keep, live0, cap, quota, early_exit, refuse):
    """Walk a block's candidates in order, as the candidate loop would.

    ``live0`` is the live total before the block; candidate c has
    ``live0 + S(c) + top(c)`` units live at its highest, where ``S(c)`` sums
    ``gain``, the units a solution keeps live, over the solutions before it.
    The walk covers the candidates of ``keep`` (not 0), stopping at the first
    solution with ``early_exit`` or at the solution past ``quota``, which is
    refused.  ``refuse`` is None or a candidate after ``keep`` known to be
    refused.  Returns ``(hits, gained, peak, refuse)``: the solutions before
    the first refused candidate, the units they keep live, the highest live
    total of the candidates walked, and the first refused candidate or None.
    ``S`` is one prefix sum on the bit planes (``_vprefix``).
    """
    n = keep.bit_length()
    hits = _bits(hit, n) if hit else []
    if early_exit and hits:
        del hits[1:]
        n = hits[0] + 1
        refuse = None
    elif len(hits) > quota:
        refuse = hits[quota]
        del hits[quota:]
        n = refuse + 1
    hit &= (2 << hits[-1]) - 1 if hits else 0
    s = _vprefix([p & hit for p in gain], n)
    walked = (1 << n) - 1
    high = _vadd(s, top)
    peak = live0 + _vmax_in(high, walked)
    if peak > cap:
        over = _vabove(high, cap - live0, walked)
        refuse = (over & -over).bit_length() - 1
        del hits[bisect.bisect_left(hits, refuse) :]
    return hits, _vat(s, n if refuse is None else refuse), peak, refuse
