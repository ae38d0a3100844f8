"""Set partitions of {1..n}: noncrossing, interval, irreducible, colored.

Partitions are immutable: blocks are tuples of increasing integers, sorted
by minimum.  Colorings are plain sequences of hashable labels, one per
point; a partition is compatible with a coloring when every block is
monochromatic.  Enumeration builds only the partitions it returns and is
guarded (Catalan growth), but the guard can be raised per call.
"""

from __future__ import annotations

import itertools

from .errors import DomainError, Frozen, LimitError

ENUMERATION_GUARD = 14


class SetPartition(Frozen):
    """A partition of {1, ..., n} into disjoint nonempty blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        seen = set()
        normalized = []
        for block in blocks:
            block = tuple(sorted(block))
            if not block:
                raise DomainError("empty block")
            normalized.append(block)
            for p in block:
                if not isinstance(p, int) or not 1 <= p <= n:
                    raise DomainError("point %r outside 1..%d" % (p, n))
                if p in seen:
                    raise DomainError("point %d in two blocks" % p)
                seen.add(p)
        if len(seen) != n:
            raise DomainError("blocks do not cover 1..%d" % n)
        normalized.sort(key=lambda b: b[0])
        super().__init__(n, tuple(normalized))

    def block_index(self):
        """Map point -> position of its block in self.blocks."""
        out = {}
        for k, block in enumerate(self.blocks):
            for p in block:
                out[p] = k
        return out

    def block_of(self, point):
        for block in self.blocks:
            if point in block:
                return block
        raise DomainError("point %d outside 1..%d" % (point, self.n))

    def same_block(self, p, q):
        return self.block_of(p) is self.block_of(q)

    def leq(self, other):
        """Refinement: every block of self lies inside a block of other."""
        if self.n != other.n:
            raise DomainError("ground sets differ")
        index = other.block_index()
        return all(
            all(index[p] == index[block[0]] for p in block)
            for block in self.blocks
        )

    def __str__(self):
        return "".join(
            "{%s}" % ",".join(map(str, b)) for b in self.blocks
        )


def _check_range(n, guard):
    limit = ENUMERATION_GUARD if guard is None else guard
    if n < 1 or n > limit:
        raise LimitError(
            "enumeration size %d outside 1..%d; library callers raise the "
            "upper end with guard=, the command line has no override"
            % (n, limit)
        )


def _nc_blocks(points, colors=None, closed=False):
    """All noncrossing partitions of an increasing tuple, as block lists.

    With colors (one label per point of the whole ground set) only the
    compatible ones; with closed, only those whose first block also holds
    the last point.
    """
    if not points:
        yield []
        return
    for block, regions in _first_block_splits(points, colors):
        if closed and regions[-1]:
            continue
        lists = [list(_nc_blocks(region, colors)) for region in regions]
        for parts in itertools.product(*lists):
            out = [block]
            for part in parts:
                out.extend(part)
            yield out


def _first_block_splits(points, colors):
    """Choices of the block containing points[0], with enclosed regions.

    The block is built left to right from points of its colour; each
    extension isolates the skipped points as a region, and closing the
    block frees the tail (the last region, empty when the block holds
    points[-1]).
    """
    color = None if colors is None else colors[points[0] - 1]
    stack = [((points[0],), (), 1)]
    while stack:
        block, regions, start = stack.pop()
        yield block, regions + (points[start:],)
        for k in range(len(points) - 1, start - 1, -1):
            if color is None or colors[points[k] - 1] == color:
                stack.append(
                    (block + (points[k],), regions + (points[start:k],), k + 1)
                )


def _enumerate(n, guard, colors=None, closed=False):
    """The guarded list behind every noncrossing enumeration below."""
    _check_range(n, guard)
    points = tuple(range(1, n + 1))
    out = []
    # the generator's blocks are sorted, disjoint and ordered by their
    # minima already: store them without SetPartition's re-validation
    for blocks in _nc_blocks(points, colors, closed):
        p = SetPartition.__new__(SetPartition)
        Frozen.__init__(p, n, tuple(blocks))
        out.append(p)
    return out


def enumerate_nc(n, guard=None):
    """All noncrossing partitions of {1..n} in a fixed deterministic order."""
    return _enumerate(n, guard)


def enumerate_interval(n, guard=None):
    """All interval partitions, ordered by the bitmask of cut positions."""
    _check_range(n, guard)
    out = []
    for mask in range(1 << (n - 1)):
        cuts = [k for k in range(1, n) if mask >> (k - 1) & 1]
        edges = [0] + cuts + [n]
        out.append(
            SetPartition(
                n,
                [
                    tuple(range(a + 1, b + 1))
                    for a, b in zip(edges, edges[1:])
                ],
            )
        )
    return out


def enumerate_irreducible(n, guard=None):
    """Noncrossing partitions with 1 and n in the same block."""
    return _enumerate(n, guard, closed=True)


def is_compatible(p, colors):
    if p.n != len(colors):
        raise DomainError("coloring length differs from ground set")
    return all(len({colors[q - 1] for q in b}) == 1 for b in p.blocks)


def enumerate_nc_colored(colors, guard=None):
    """NC partitions compatible with the coloring (every block one colour),
    in the order of enumerate_nc."""
    return _enumerate(len(colors), guard, colors)


def nesting_parents(p):
    """For noncrossing p: map block -> immediately enclosing block (or None).

    Block A encloses B when min A < min B and max B < max A; the enclosing
    blocks of B form a chain, and the parent is the innermost.
    """
    parents = {}
    for b in p.blocks:
        parent = None
        for a in p.blocks:
            if a[0] < b[0] and b[-1] < a[-1]:
                if parent is None or a[0] > parent[0]:
                    parent = a
        parents[b] = parent
    return parents


def outer_inner(p):
    """Split blocks into (outer, inner); inner blocks nest inside another."""
    parents = nesting_parents(p)
    outer = tuple(b for b in p.blocks if parents[b] is None)
    inner = tuple(b for b in p.blocks if parents[b] is not None)
    return outer, inner


def is_ll(p, rho):
    """The irreducible refinement order: p <= rho and every block of rho
    has its endpoints joined by p."""
    if not p.leq(rho):
        return False
    return all(p.same_block(b[0], b[-1]) for b in rho.blocks)


def _block_colors(p, colors):
    if not is_compatible(p, colors):
        raise DomainError("partition has a block with mixed colours")
    return {b: colors[b[0] - 1] for b in p.blocks}


def is_vnrp(rho, colors):
    """Every inner block is nested immediately inside a differently
    coloured block; such partitions are exactly the ll-maximal ones."""
    color = _block_colors(rho, colors)
    parents = nesting_parents(rho)
    return all(
        parents[b] is None or color[parents[b]] != color[b]
        for b in rho.blocks
    )


def vnrp_closure(sigma, colors):
    """The unique ll-maximal partition above sigma compatible with colors.

    Obtained by merging every block into its nesting parent while they
    share a colour; merged minima and maxima come from the parent, so
    noncrossingness and the ll relation survive each merge.
    """
    color = _block_colors(sigma, colors)
    parents = nesting_parents(sigma)
    index = {b: k for k, b in enumerate(sigma.blocks)}
    root = list(range(len(sigma.blocks)))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    for b, parent in parents.items():
        if parent is not None and color[parent] == color[b]:
            root[find(index[b])] = find(index[parent])

    merged = {}
    for k, b in enumerate(sigma.blocks):
        merged.setdefault(find(k), []).extend(b)
    return SetPartition(sigma.n, list(merged.values()))
