"""Bit-sliced evaluation of flat solve bodies: a block of candidates at once.

A solve whose binders and body nodes all have flat types (see
``evaluator._sliceable``) evaluates its body once per block of candidates,
as in Biham's bit-sliced DES (FSE 1997), in place of once per candidate.
``compile_sliced`` compiles a side to closures over blocks, and
``Blocks.scan`` evaluates a block's sides, solutions and metering, then
walks its candidates in order for the peak, the solutions and the first
refused candidate.  Metering stays exact: every node's row count is a per-candidate
counter, and the live total of each metering point of literal evaluation is
composed from them.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from operator import add

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

# The one block-size constant: a slice of 2^14 candidates is 2 KB, so a
# block's working set stays well under 1 MB on the bench workloads.
BLOCK_BITS = 14


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
    """The vertical counter of how many of ``slices`` hold each candidate."""
    planes: list = []
    for s in slices:
        for i, p in enumerate(planes):
            planes[i] = p ^ s
            s &= p
            if not s:
                break
        else:
            planes.append(s)
    return planes


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


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_bytes(x: int, n: int) -> bytes:
    """Bits 0..n-1 of ``x`` as n bytes, 0 or 1, lowest bit first."""
    return format(x, f"0{n}b").encode()[: -n - 1 : -1].translate(_BIT_BYTES)


def _lanes(a: list, n: int) -> array:
    """The value of ``a`` for each candidate 0..n-1, which must be < 2^64.
    Each plane's bits are spread one per 8-byte lane of one int, and the
    shifted planes added."""
    total = 0
    wide = bytearray(n << 3)
    for i, p in enumerate(a):
        wide[::8] = _bit_bytes(p, n)
        total += int.from_bytes(wide, "little") << i
    out = array("Q", total.to_bytes(n << 3, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


# Up to this many solutions in a block, its candidates are walked one
# segment between solutions at a time on the bit planes; past it, on
# unpacked per-candidate lanes.  On a block of 2^14 candidates a segment
# costs about 15 us and the lanes about 12 ms (2-CPU VM, Python 3.11).
SEGMENT_HITS = 512


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
    counter of its row count; ``keep`` has a bit for each candidate of the
    block and ``room`` is the space the cap leaves above the live units at
    the block's start.  ``count`` and ``size`` are the vertical counters of
    the result's rows and units, and ``peak`` that of the most units live
    at once while the node runs, from its start.  An operator node runs its
    operands, then ``build`` on their values, then each level of ``levels``
    (a kernel or None, and the width of its rows), and literal evaluation
    charges each result while the one below it is live.  A product's count
    is its operands' counts multiplied, known before any row is built, and a
    candidate that would exceed the cap there raises ``_Refused``.  A select
    chain over a product joins on its key column, as
    ``evaluator._compile_join`` does, and never builds the product.
    """
    w = types[path].row_base_size
    if isinstance(e, (ast.Name, ast.Domain)):

        def leaf(env, keep, room, _nm=e.name if isinstance(e, ast.Name) else "D", _w=w):
            v, c = env[_nm]
            s = _vscale(c, _w)
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
          for label in ast.child_labels(e)]  # fmt: skip

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

    def __init__(self, sliced, env, consts, names, types, universes) -> None:
        *gs, free = sliced
        self.sides = [(g, None if c is None else c.rows) for g, c in zip(gs, consts)]
        self.free = [(nm, env[nm].rows) for nm in free]
        # the counter bit of each binder's first row: the last counts fastest
        shift = 0
        self.binders = []
        for nm, t, u in reversed(tuple(zip(names, types, universes))):
            self.binders.append((nm, u, shift, t.row_base_size))
            shift += len(u)
        self.bits = bits = min(BLOCK_BITS, shift)
        # bit c of patterns[j] is bit j of c, then the bits fixed per block
        self.patterns = []
        for j in range(bits):
            period = 2 << j
            p = ((1 << (1 << j)) - 1) << (1 << j)
            while period < 1 << bits:
                p |= p << period
                period <<= 1
            self.patterns.append(p)
        self.patterns += [None] * (shift - bits)

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
        return [], [], 0, refuse

    def _evaluate(self, k: int, keep: int, room: int):
        """``(hit, csize, top)`` for the candidates ``keep`` of block ``k``:
        the solutions, and the vertical counters of each candidate's size
        and of the most units live at once while it is tested, from before
        it is charged."""
        env = {nm: ({r: keep for r in rows}, _vconst(len(rows), keep))
               for nm, rows in self.free}  # fmt: skip
        # the slice of each counter bit: a pattern, or all or none of keep
        slices = [
            keep & (p if p is not None else keep * (k >> j & 1))
            for j, p in enumerate(self.patterns, -self.bits)
        ]
        csize: list = []
        for nm, universe, shift, w in self.binders:
            value = {row: s for row, s in zip(universe, slices[shift:]) if s}
            count = _vcount(value.values())
            env[nm] = (value, count)
            csize = _vadd(csize, _vscale(count, w))
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
        kept = [p & hit for p in _vadd(csize, [keep])]
        top = _vadd(csize, _vmax(_vmax(pl, _vadd(sl, pr), keep), kept, keep))
        return hit, csize, top


def _scan(hit, csize, top, keep, live0, cap, quota, early_exit, refuse):
    """Walk a block's candidates in order, as the candidate loop would.

    ``live0`` is the live total before the block; candidate c has
    ``live0 + S(c) + top(c)`` units live at its highest, where ``S(c)`` sums
    ``1 + csize`` over the solutions before it.  The walk covers the
    candidates of ``keep``, stopping at the first solution with
    ``early_exit`` or at the solution past ``quota``, which is refused.
    ``refuse`` is None or a candidate after ``keep`` known to be refused.
    Returns ``(hits, gains, peak, refuse)``: the solutions walked, what each
    adds to the live total, the highest live total, and the first refused
    candidate or None.  Few solutions are walked one segment between them
    at a time on the planes, many on per-candidate lanes.
    """
    n = keep.bit_length()
    hits = list(itertools.compress(range(n), _bit_bytes(hit, n))) if hit else []
    if early_exit and hits:
        del hits[1:]
        n = hits[0] + 1
        refuse = None
    elif len(hits) > quota:
        refuse = hits[quota]
        del hits[quota:]
        n = refuse + 1
    if n == 0:
        return hits, [], 0, refuse
    if len(hits) <= SEGMENT_HITS or len(top) > 63:
        gains = [1 + _vat(csize, h) for h in hits]
        peak = 0
        lo = 0
        live = live0
        for end, gain in itertools.zip_longest((*hits, n - 1), gains, fillvalue=0):
            if end >= lo:
                mask = ((2 << end) - 1) ^ ((1 << lo) - 1)
                high = live + _vmax_in(top, mask)
                if high > cap:
                    over = _vabove(top, cap - live, mask)
                    return hits, gains, peak, (over & -over).bit_length() - 1
                peak = max(peak, high)
            live += gain
            lo = end + 1
        return hits, gains, peak, refuse
    tops = _lanes(top, n)
    sizes = _lanes(csize, n)
    gains = [1 + sizes[h] for h in hits]
    steps = [0] * n
    for h, gain in zip(hits, gains):
        steps[h] = gain
    totals = list(map(add, itertools.accumulate(steps, initial=live0), tops))
    peak = max(totals)
    if peak > cap:
        return hits, gains, peak, next(c for c, t in enumerate(totals) if t > cap)
    return hits, gains, peak, refuse
