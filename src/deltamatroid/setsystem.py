"""Bitvector set systems and delta-matroid primitives.

A set system on ground set {1, ..., n} is stored as a single feasibility
integer: bit m is set iff the subset whose indicator mask is m is feasible.
Element i corresponds to mask bit i-1, the same convention everywhere in
this package.  Systems with no feasible set (the improper systems) are
first-class values.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, TypeVar

MAX_GROUND_SIZE = 16

T = TypeVar("T")


class ImproperSystemError(ValueError):
    """Raised when an operation requires at least one feasible set."""


class SystemFormatError(ValueError):
    """Raised on malformed set-system documents."""


class MinorKind(Enum):
    DELETE = "delete"
    CONTRACT = "contract"


def bit_positions(x: int) -> list[int]:
    """The positions of the set bits of x, ascending, read from one binary
    string, so the cost is linear in the bit length of x."""
    return [p for p, b in enumerate(bin(x)[:1:-1]) if b == "1"]


def mask_of(elements: Iterable[int]) -> int:
    """Mask of a subset given as 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a subset mask, ascending."""
    return tuple(p + 1 for p in bit_positions(mask))


@dataclass(frozen=True)
class SetSystem:
    """A set system: ground-set size plus feasibility bits.

    ``bits`` has one bit per subset mask of {1..n}, so it is an integer
    below 2**(2**n).  ``bits == 0`` is the improper system.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GROUND_SIZE:
            raise ValueError(f"ground-set size {self.n} outside 0..{MAX_GROUND_SIZE}")
        if self.bits < 0 or self.bits.bit_length() > (1 << self.n):
            raise ValueError("feasibility bits out of range for ground-set size")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> SetSystem:
        bits = 0
        for m in masks:
            if not 0 <= m < (1 << n):
                raise ValueError(f"subset mask {m} out of range for n={n}")
            bits |= 1 << m
        return cls(n, bits)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> SetSystem:
        return cls.from_masks(n, (mask_of(s) for s in sets))

    @property
    def is_proper(self) -> bool:
        return self.bits != 0

    @property
    def num_feasible(self) -> int:
        return self.bits.bit_count()

    def feasible_masks(self) -> Iterator[int]:
        """Feasible subset masks, ascending."""
        return iter(bit_positions(self.bits))

    def has_mask(self, mask: int) -> bool:
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"subset mask {mask} out of range for n={self.n}")
        return bool((self.bits >> mask) & 1)

    def feasible_sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.feasible_masks()]

    def __repr__(self) -> str:
        sets = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.feasible_sets())
        return f"SetSystem(n={self.n}, feasible=[{sets}])"


@dataclass(frozen=True)
class ExchangeWitness:
    """A violation of symmetric exchange: feasible X, Y and e in X^Y such
    that no f in X^Y (f = e allowed) makes X with {e,f} exchanged feasible."""

    x: int
    y: int
    e: int


def _merge_halves(cells: list[int], width: int) -> tuple[int, int]:
    """Pair up consecutive transforms of ``width`` cells each, as the 0 and
    1 halves along their next element, until one is left; returns it and
    its width.  Along each element the * cell is the OR of the 0 and 1
    cells."""
    while len(cells) > 1:
        cells = [a | b << width | (a | b) << 2 * width for a, b in zip(cells[::2], cells[1::2])]
        width *= 3
    return cells[0], width


@functools.cache
def _byte_cubes() -> tuple[int, ...]:
    """_subcube_or of every system on three elements, as ints indexed by
    the system's feasibility byte."""
    return tuple(_merge_halves([b >> m & 1 for m in range(8)], 1)[0] for b in range(256))


def _subcube_or(n: int, bits: int) -> bytes:
    """Ternary OR-transform of a feasibility vector over {0,1,*}^n.

    Cell c = sum of c_q * 3^q, with digit c_q in {0, 1, 2 = *}, is the
    sub-cube of the masks whose bit q is c_q wherever c_q < 2.  For every
    c < 3^n, bit c of the result (little-endian) is set iff some feasible
    mask lies in sub-cube c.  The transform is built bottom-up from a table
    of three-element ones, with no mask tables: the largest values held
    are the 3^n-bit result and its bytes (5.4 MB each at n = 16).
    """
    table = _byte_cubes()
    cells = [table[b] for b in bits.to_bytes(max(1 << n >> 3, 1), "little")]
    cube, width = _merge_halves(cells, 27)
    return cube.to_bytes((width + 7) // 8, "little")


@functools.lru_cache(maxsize=1)
def _ternary(n: int) -> tuple[int, ...]:
    """Mask m -> sum of bit_q(m) * 3^q, for every mask below 2^n."""
    tern = [0]
    for q in range(n):
        tern += [t + 3 ** q for t in tern]
    return tuple(tern)


def check_symmetric_exchange(s: SetSystem) -> ExchangeWitness | None:
    """Test the symmetric exchange axiom.

    Returns None when the system is a delta-matroid, otherwise the first
    violating triple in ascending (X, Y, e) order, which makes witnesses
    reproducible across runs.

    Only positions p whose single flip X ^ {p} is infeasible can violate:
    otherwise p itself is an allowed partner.  For such a p, the allowed
    partners are the q with X ^ {p, q} feasible, and (X, Y, p + 1)
    violates iff Y differs from X at p and agrees with X at every allowed
    partner.  So (X, p) violates for some Y iff one sub-cube of {0,1,*}^n
    holds a feasible set, which one lookup into _subcube_or answers.  Y is
    scanned only for the first X that has a violating p.
    """
    if not s.is_proper:
        raise ImproperSystemError("symmetric exchange is undefined for improper systems")
    n, bits = s.n, s.bits
    full = (1 << n) - 1
    feas = bit_positions(bits)
    # near[m]: the positions q whose flip m ^ {q} is feasible
    near = [0] * (1 << n)
    for q in range(n):
        flip = 1 << q
        for m in feas:
            near[m ^ flip] |= flip
    cube = tern = None
    for x in feas:
        blocked = full & ~near[x]
        rest = blocked
        while rest:
            flip = rest & -rest
            rest ^= flip
            if cube is None:
                cube, tern = _subcube_or(n, bits), _ternary(n)
            # X is feasible, so p is in near[X ^ {p}]: fixed = partners + p
            fixed = near[x ^ flip]
            c = tern[(x ^ flip) & fixed] + 2 * tern[full ^ fixed]
            if cube[c >> 3] >> (c & 7) & 1:
                return _first_witness(feas, near, x, blocked)
    return None


def _first_witness(feas: list[int], near: list[int], x: int, blocked: int) -> ExchangeWitness:
    """The first (Y, e) violating with X, for an X that has one."""
    flips = [(1 << p, near[x ^ (1 << p)] & ~(1 << p)) for p in bit_positions(blocked)]
    for y in feas:
        d = x ^ y
        for flip, allowed in flips:
            if d & flip and not d & allowed:
                return ExchangeWitness(x=x, y=y, e=flip.bit_length())
    raise AssertionError("sub-cube transform and scan disagree")


def is_delta_matroid(s: SetSystem) -> bool:
    """True iff s is proper and satisfies symmetric exchange."""
    if not s.is_proper:
        return False
    return check_symmetric_exchange(s) is None


@functools.cache
def even_parity_indicator(n: int) -> int:
    """Integer whose bit m is set iff mask m has even popcount."""
    ind = 1
    for k in range(n):
        width = 1 << k
        odd = ind ^ ((1 << width) - 1)
        ind |= odd << width
    return ind


@functools.cache
def rank_indicator(n: int, r: int) -> int:
    """Integer whose bit m is set iff mask m has exactly r elements: the
    masks without element n hold the r-sets on n - 1 elements, and those
    with it the (r - 1)-sets."""
    if not 0 <= r <= n:
        return 0
    if n == 0:
        return 1
    half = 1 << (n - 1)
    return rank_indicator(n - 1, r) | rank_indicator(n - 1, r - 1) << half


def is_even(s: SetSystem) -> bool:
    """True iff all feasible sets have sizes of one parity."""
    if not s.is_proper:
        raise ImproperSystemError("evenness is undefined for improper systems")
    ind = even_parity_indicator(s.n)
    return s.bits & ind == 0 or s.bits & ~ind == 0


def twist(s: SetSystem, mask: int) -> SetSystem:
    """Symmetric-difference every feasible set with the given subset mask.

    Twisting by the full ground set gives the dual system.
    """
    if not 0 <= mask < (1 << s.n):
        raise ValueError(f"twist mask {mask} out of range for n={s.n}")
    if mask == 0:
        return s
    out = 0
    for m in s.feasible_masks():
        out |= 1 << (m ^ mask)
    return SetSystem(s.n, out)


# --- documents: set-system files and the shared reading rule -----------------
#
# A set-system file is exactly {"n": <int>, "feasible": [<mask>, ...]} with
# the masks strictly increasing: what system_to_dict writes.  Every document
# the package reads (set systems here, records in encoding) is accepted only
# if it is the JSON value that the package's own writer produces for what
# it holds, so each value has exactly one accepted document, up to
# whitespace and key order.

def system_to_dict(s: SetSystem) -> dict:
    return {"n": s.n, "feasible": list(s.feasible_masks())}


def system_from_dict(doc: object) -> SetSystem:
    if not isinstance(doc, dict):
        raise SystemFormatError("set-system document must be a JSON object")
    n = doc.get("n")
    if type(n) is not int or not 0 <= n <= MAX_GROUND_SIZE:
        raise SystemFormatError(f"field 'n' must be an integer in 0..{MAX_GROUND_SIZE}, got {n!r}")
    feasible = doc.get("feasible")
    if not isinstance(feasible, list) or len(feasible) > 1 << n:
        raise SystemFormatError(f"field 'feasible' must be an array of at most {1 << n} masks")
    try:
        system = SetSystem.from_masks(n, map(int, feasible))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SystemFormatError(f"field 'feasible' must hold masks: {exc}") from None
    require_as_written(doc, system_to_dict(system))
    return system


def require_as_written(doc: dict, written: dict) -> None:
    """Refuse doc unless it is the JSON value written: the same fields, each
    with the same json.dumps.  So no float, boolean or string stands for an
    integer, every array is in the written order, and no field is added or
    left out."""
    if json.dumps(doc, sort_keys=True) == json.dumps(written, sort_keys=True):
        return
    for key in sorted(doc.keys() | written.keys()):
        if key not in written:
            raise SystemFormatError(f"unknown field {key!r}")
        want = json.dumps(written[key])
        if json.dumps(doc.get(key)) != want:
            raise SystemFormatError(
                f"field {key!r} must be {want if len(want) <= 80 else 'as the package writes it'}"
            )


def parse_document(text: str | bytes, from_dict: Callable[[object], T]) -> T:
    """from_dict of the JSON value in text, given as str or as UTF-8 bytes.
    Bytes that are not UTF-8, text that is not JSON, numbers too long for
    int() and nesting too deep for the json module are SystemFormatErrors."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise SystemFormatError(f"invalid JSON: {exc}") from None
    try:
        return from_dict(doc)
    except RecursionError:
        raise SystemFormatError("document nested too deeply") from None


def read_document(path: str | os.PathLike, from_dict: Callable[[object], T]) -> T:
    with open(path, "rb") as fh:
        return parse_document(fh.read(), from_dict)


def dumps_system(s: SetSystem) -> str:
    return json.dumps(system_to_dict(s))


def loads_system(text: str) -> SetSystem:
    return parse_document(text, system_from_dict)


def load_system(path: str | os.PathLike) -> SetSystem:
    return read_document(path, system_from_dict)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | os.PathLike, *chunks) -> None:
    """Write bytes-like chunks in order via a temp file and rename, so
    failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
