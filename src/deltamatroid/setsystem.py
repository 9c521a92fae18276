"""Bitvector set systems and delta-matroid primitives.

A set system on ground set {1, ..., n} is stored as a single feasibility
integer: bit m is set iff the subset whose indicator mask is m is feasible.
Element i corresponds to mask bit i-1, the same convention everywhere in
this package.  Systems with no feasible set (the improper systems) are
first-class values.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

MAX_GROUND_SIZE = 16


class ImproperSystemError(ValueError):
    """Raised when an operation requires at least one feasible set."""


class SystemFormatError(ValueError):
    """Raised on malformed set-system documents."""


class MinorKind(Enum):
    DELETE = "delete"
    CONTRACT = "contract"


def popcount(x: int) -> int:
    return x.bit_count()


def iter_bits(x: int) -> Iterator[int]:
    """Yield the positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mask_of(elements: Iterable[int]) -> int:
    """Mask of a subset given as 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a subset mask, ascending."""
    return tuple(p + 1 for p in iter_bits(mask))


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
        return popcount(self.bits)

    def feasible_masks(self) -> Iterator[int]:
        """Feasible subset masks, ascending."""
        return iter_bits(self.bits)

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


@dataclass(frozen=True)
class Matroid:
    """Equicardinal feasible sets satisfying basis exchange."""

    system: SetSystem
    rank: int

    @property
    def n(self) -> int:
        return self.system.n

    def bases(self) -> Iterator[int]:
        return self.system.feasible_masks()

    def dual(self) -> Matroid:
        full = (1 << self.n) - 1
        return Matroid(twist(self.system, full), self.n - self.rank)


def _allowed_exchange_mask(bits: int, n: int, x: int, p: int) -> int:
    """Bitmask over element positions q such that exchanging {p+1, q+1}
    at feasible X keeps the result feasible; q == p means the single flip."""
    base = x ^ (1 << p)
    allowed = 0
    for q in range(n):
        target = base if q == p else base ^ (1 << q)
        if (bits >> target) & 1:
            allowed |= 1 << q
    return allowed


def check_symmetric_exchange(s: SetSystem) -> ExchangeWitness | None:
    """Test the symmetric exchange axiom.

    Returns None when the system is a delta-matroid, otherwise the first
    violating triple in ascending (X, Y, e) order, which makes witnesses
    reproducible across runs.  Only positions p whose single flip X ^ {p}
    is infeasible can violate: otherwise p itself is an allowed partner.
    """
    if not s.is_proper:
        raise ImproperSystemError("symmetric exchange is undefined for improper systems")
    bits = s.bits
    n = s.n
    feas = list(s.feasible_masks())
    for x in feas:
        blocked = [
            (1 << p, _allowed_exchange_mask(bits, n, x, p))
            for p in range(n)
            if not (bits >> (x ^ (1 << p))) & 1
        ]
        if not blocked:
            continue
        for y in feas:
            d = x ^ y
            for flip, allowed in blocked:
                if d & flip and not d & allowed:
                    return ExchangeWitness(x=x, y=y, e=flip.bit_length())
    return None


def is_delta_matroid(s: SetSystem) -> bool:
    """True iff s is proper and satisfies symmetric exchange."""
    if not s.is_proper:
        return False
    return check_symmetric_exchange(s) is None


def even_parity_indicator(n: int) -> int:
    """Integer whose bit m is set iff mask m has even popcount."""
    ind = 1
    for k in range(n):
        width = 1 << k
        odd = ind ^ ((1 << width) - 1)
        ind |= odd << width
    return ind


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


def dual(s: SetSystem) -> SetSystem:
    return twist(s, (1 << s.n) - 1)


def _squeeze(mask: int, p: int) -> int:
    """Drop bit position p from a mask, shifting higher bits down."""
    return (mask & ((1 << p) - 1)) | ((mask >> (p + 1)) << p)


def minor(s: SetSystem, e: int, kind: MinorKind) -> SetSystem:
    """Delete or contract element e, relabelling {1..n}-e onto {1..n-1}.

    Deletion keeps the feasible sets avoiding e; contraction keeps those
    containing e and removes e from them.  Either may be improper.
    """
    if s.n < 1 or not 1 <= e <= s.n:
        raise ValueError(f"element {e} out of range for n={s.n}")
    p = e - 1
    want = 0 if kind is MinorKind.DELETE else 1
    out = 0
    for m in s.feasible_masks():
        if (m >> p) & 1 == want:
            out |= 1 << _squeeze(m, p)
    return SetSystem(s.n - 1, out)


def compose(d1: SetSystem, d2: SetSystem) -> SetSystem:
    """Inverse of splitting off the top element.

    Builds the system D on one more element whose contraction by the top
    element is d1 and whose deletion is d2.  This pairing is a bijection
    between systems on {1..n} and ordered pairs of systems on {1..n-1}.
    """
    if d1.n != d2.n:
        raise ValueError(f"ground-set sizes differ: {d1.n} != {d2.n}")
    half = 1 << d1.n
    return SetSystem(d1.n + 1, d2.bits | (d1.bits << half))


def is_matroid(b: SetSystem) -> bool:
    """True iff the feasible sets are equicardinal and exchange holds."""
    if not b.is_proper:
        raise ImproperSystemError("matroid test is undefined for improper systems")
    sizes = {popcount(m) for m in b.feasible_masks()}
    if len(sizes) != 1:
        return False
    return check_symmetric_exchange(b) is None


# --- shared set-system document format -------------------------------------
#
# {"n": <int>, "feasible": [<mask>, ...]} with masks strictly increasing.

def system_to_dict(s: SetSystem) -> dict:
    return {"n": s.n, "feasible": list(s.feasible_masks())}


def system_from_dict(doc: object) -> SetSystem:
    if not isinstance(doc, dict):
        raise SystemFormatError("set-system document must be a JSON object")
    try:
        n = doc["n"]
        feasible = doc["feasible"]
    except KeyError as exc:
        raise SystemFormatError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise SystemFormatError("field 'n' must be an integer")
    if not 0 <= n <= MAX_GROUND_SIZE:
        raise SystemFormatError(f"field 'n' must be in 0..{MAX_GROUND_SIZE}, got {n}")
    if not isinstance(feasible, list):
        raise SystemFormatError("field 'feasible' must be an array of masks")
    bits = 0
    prev = -1
    for i, m in enumerate(feasible):
        if not isinstance(m, int) or isinstance(m, bool):
            raise SystemFormatError(f"feasible[{i}] is not an integer")
        if not 0 <= m < (1 << n):
            raise SystemFormatError(f"feasible[{i}]={m} out of range 0..{(1 << n) - 1}")
        if m <= prev:
            raise SystemFormatError(f"feasible[{i}]={m} breaks strict ascending order")
        prev = m
        bits |= 1 << m
    return SetSystem(n, bits)


def dumps_system(s: SetSystem) -> str:
    return json.dumps(system_to_dict(s))


def loads_system(text: str) -> SetSystem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"invalid JSON: {exc}") from None
    return system_from_dict(doc)


def load_system(path: str | os.PathLike) -> SetSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_system(fh.read())


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
