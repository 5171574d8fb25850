"""Set-partition engine: enumeration under block-size / interval / non-crossing
constraints.

Ground sets are ``[m] = {1, ..., m}`` (1-based).  Partitions are kept in a
canonical form (blocks sorted by least element, elements ascending inside a
block) so enumeration output is deterministic and directly comparable in
golden tests.  ``cap_check`` bounds the ground set where a partition class is
built: here in ``enumerate_partitions``, and in ``contract.grouped_types``
for the classes the moment engines contract.  ``rho_partitions`` lists the
free oracle's single-four-block partitions one by one, for its own callers:
the oracle counts them from the class it contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import GroundCapExceeded, HomsumError

#: Largest ground set the enumeration engine accepts.  Order-6 moments of a
#: degree-4 kernel need 24 positions; anything bigger would thrash.
GROUND_CAP = 24


def cap_check(ground: int) -> None:
    """The one ground-set check: partitions of ``[ground]`` beyond
    ``GROUND_CAP`` raise ``GroundCapExceeded``."""
    if ground > GROUND_CAP:
        raise GroundCapExceeded(f"ground set [{ground}] exceeds the cap {GROUND_CAP}")


class Partition:
    """A partition of ``[m]`` into disjoint non-empty blocks."""

    __slots__ = ("ground_size", "blocks")

    def __init__(self, ground_size: int, blocks: Iterable[Iterable[int]]):
        canon = sorted(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise HomsumError("empty block in partition")
            for x in b:
                if not (1 <= x <= ground_size):
                    raise HomsumError(f"element {x} outside ground set [{ground_size}]")
                if x in seen:
                    raise HomsumError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != ground_size:
            raise HomsumError("blocks do not cover the ground set")
        self.ground_size = ground_size
        self.blocks = tuple(canon)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def is_pairing(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.ground_size == other.ground_size
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self.blocks))

    def __lt__(self, other: "Partition") -> bool:
        return self.blocks < other.blocks

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition([{self.ground_size}]: {inner})"


@dataclass(frozen=True)
class IntervalPattern:
    """Partition of ``[block_count * block_length]`` into consecutive intervals.

    With ``block_length=d, block_count=4`` this is the four-interval pattern
    used throughout the fourth-moment computations.
    """

    block_length: int
    block_count: int

    def __post_init__(self) -> None:
        if self.block_length < 1 or self.block_count < 1:
            raise HomsumError("interval pattern needs positive length and count")

    @property
    def ground_size(self) -> int:
        return self.block_length * self.block_count

    def interval_of(self, x: int) -> int:
        """0-based interval index containing ``x``."""
        return (x - 1) // self.block_length


@dataclass(frozen=True)
class BlockProfile:
    """Allowed block sizes for an enumeration."""

    allowed_sizes: frozenset[int]

    def __init__(self, allowed_sizes: Iterable[int]):
        sizes = frozenset(int(s) for s in allowed_sizes)
        if not sizes or min(sizes) < 1:
            raise HomsumError("block profile needs a non-empty set of sizes >= 1")
        object.__setattr__(self, "allowed_sizes", sizes)


def is_noncrossing(p: Partition) -> bool:
    """True iff no quadruple ``i<j<k<l`` with ``i~k``, ``j~l``, ``j!~k``.

    Implemented by the linear stack scan: an element continuing a block must
    find that block on top of the open-block stack.
    """
    block_of = {x: i for i, b in enumerate(p.blocks) for x in b}
    first = {b[0]: i for i, b in enumerate(p.blocks)}
    last = {b[-1]: i for i, b in enumerate(p.blocks)}
    stack: list[int] = []
    for x in range(1, p.ground_size + 1):
        b = block_of[x]
        if first.get(x) == b:
            stack.append(b)
        if stack[-1] != b:
            return False
        if last.get(x) == b:
            stack.pop()
    return True


def respects(p: Partition, pattern: IntervalPattern) -> bool:
    """True iff every block of ``p`` meets every interval of ``pattern`` at
    most once (lattice meet with the interval pattern is the discrete
    partition)."""
    if p.ground_size != pattern.ground_size:
        raise HomsumError(
            f"ground-set mismatch: partition on [{p.ground_size}], "
            f"pattern on [{pattern.ground_size}]"
        )
    for b in p.blocks:
        ivs = [pattern.interval_of(x) for x in b]
        if len(set(ivs)) != len(ivs):
            return False
    return True


@lru_cache(maxsize=None)
def _enumerate_cached(
    m: int,
    sizes: frozenset[int],
    interval_len: int | None,
    noncrossing: bool,
) -> tuple[Partition, ...]:
    max_size = max(sizes)
    min_size = min(sizes)
    # fewest extra elements a block of each size needs to reach an allowed
    # size; a block grows only while below max_size, so each is defined
    deficit = [min(s - c for s in sizes if s >= c) for c in range(max_size + 1)]
    out: list[Partition] = []
    blocks: list[list[int]] = []
    # per block, the arcs now enclosing it; an enclosed block is final
    closed: list[int] = []

    def iv(x: int) -> int:
        return (x - 1) // interval_len  # type: ignore[operator]

    def rec(e: int) -> None:
        # elements still to place, including e itself
        left = m - e + 1
        demand = 0
        for b in blocks:
            demand += deficit[len(b)]
        if demand > left:
            return
        if e > m:  # no demand left: every block has an allowed size
            out.append(Partition(m, [tuple(b) for b in blocks]))
            return
        # option 1: extend an existing block
        for bi, b in enumerate(blocks):
            if closed[bi] or len(b) >= max_size:
                continue
            if interval_len is not None and any(iv(x) == iv(e) for x in b):
                continue
            inside: list[int] = []
            if noncrossing:
                # blocks with an element under the new arc lie wholly
                # inside it: one straddling the arc would have closed b
                lastb = b[-1]
                inside = [
                    cj for cj, c in enumerate(blocks) if cj != bi and any(lastb < x < e for x in c)
                ]
                if any(len(blocks[cj]) not in sizes for cj in inside):
                    continue  # nested blocks can never grow again
            for cj in inside:
                closed[cj] += 1
            b.append(e)
            rec(e + 1)
            b.pop()
            for cj in inside:
                closed[cj] -= 1
        # option 2: open a new block (sound prune: every open block, including
        # the new one, must still be completable with the elements after e)
        if demand + min_size - 1 <= left - 1:
            blocks.append([e])
            closed.append(0)
            rec(e + 1)
            blocks.pop()
            closed.pop()

    rec(1)
    out.sort(key=lambda p: p.blocks)
    return tuple(out)


def enumerate_partitions(
    m: int,
    profile: BlockProfile,
    respect: IntervalPattern | None = None,
    noncrossing: bool = False,
) -> list[Partition]:
    """All partitions of ``[m]`` with block sizes in ``profile``, optionally
    respecting an interval pattern and/or non-crossing.

    Output is deterministic: blocks sorted by least element, partitions in
    lexicographic order of their canonical block tuples.
    """
    if m < 1:
        raise HomsumError(f"invalid ground size {m}")
    cap_check(m)
    interval_len = None
    if respect is not None:
        if respect.ground_size != m:
            raise HomsumError(
                f"interval pattern covers [{respect.ground_size}], expected [{m}]"
            )
        interval_len = respect.block_length
    return list(_enumerate_cached(m, profile.allowed_sizes, interval_len, noncrossing))


@lru_cache(maxsize=None)
def _rho_cached(d: int) -> tuple[Partition, ...]:
    m = 4 * d
    pattern = IntervalPattern(d, 4)
    full = enumerate_partitions(m, BlockProfile({2, 4}), pattern, noncrossing=True)
    rhos = sorted(
        (p for p in full if not p.is_pairing()),
        key=lambda p: [b for b in p.blocks if len(b) == 4],
    )
    fours = [[b for b in p.blocks if len(b) == 4] for p in rhos]
    want = [[(h, 2 * d - h + 1, 2 * d + h, 4 * d - h + 1)] for h in range(1, d + 1)]
    if fours != want:
        raise HomsumError(f"rho 4-blocks for d={d} are {fours}, not {want} (bug)")
    # disjoint-union identity: the 2,4-class is the pairings plus the rhos
    pair_part = set(enumerate_partitions(m, BlockProfile({2}), pattern, noncrossing=True))
    if set(full) != pair_part | set(rhos) or len(full) != len(pair_part) + d:
        raise HomsumError(f"rho decomposition identity failed for d={d}")
    return tuple(rhos)


def rho_partitions(d: int) -> list[Partition]:
    """The ``d`` exceptional single-4-block elements of the non-crossing
    2,4-class on ``[4d]``.

    They are the class's non-pairing members.  Every (cached) construction
    asserts one per ``h``, with the single 4-block ``{h, 2d-h+1, 2d+h,
    4d-h+1}``, and the class as their disjoint union with the pairings.
    """
    if d < 2:
        raise HomsumError("rho partitions need degree >= 2")
    return list(_rho_cached(d))
