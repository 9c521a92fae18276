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
import logging
import os
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

MAX_GROUND_SIZE = 16

logger = logging.getLogger(__name__)

T = TypeVar("T")


class ImproperSystemError(ValueError):
    """Raised when an operation requires at least one feasible set."""


class SystemFormatError(ValueError):
    """Raised on malformed set-system documents."""


class MinorKind(Enum):
    DELETE = "delete"
    CONTRACT = "contract"


def bit_positions(x: int) -> list[int]:
    """The positions of the set bits of x, ascending, read from its bytes
    in one unpack, so the interpreter takes no step per bit."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) >> 3, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


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
        """The system whose feasible masks are the given ones, in any order
        and with repeats allowed.  The bits are set in one byte array of
        2^n/8 bytes and converted to an int once, so the cost is linear in
        the number of masks plus 2^n."""
        cls(n, 0)  # refuses n outside 0..MAX_GROUND_SIZE before the array is allocated
        buf = bytearray(((1 << n) + 7) >> 3)
        for m in masks:
            if not 0 <= m < (1 << n):
                raise ValueError(f"subset mask {m} out of range for n={n}")
            buf[m >> 3] |= 1 << (m & 7)
        return cls(n, int.from_bytes(buf, "little"))

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


def _ternary_or(a: np.ndarray, count: int) -> np.ndarray:
    """Extend an OR-transform along count more elements, one at a time:
    each block of 2·3^j entries, the element's 0 and 1 halves, becomes
    3·3^j, its 0, 1 and 0|1 slices (digits 0, 1 and * = 2)."""
    for j in range(count):
        w = a.reshape(-1, 2, 3 ** j)
        a = np.concatenate((w, w[:, :1] | w[:, 1:]), axis=1)
    return a.ravel()


@functools.cache
def _byte_cubes() -> np.ndarray:
    """The transform of every system on three elements as one uint32 word
    of 27 cells, indexed by the system's feasibility byte."""
    cells = _ternary_or(np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little"), 3)
    cells = cells.reshape(256, 27).astype(np.uint32) << np.arange(27, dtype=np.uint32)
    return cells.sum(axis=1, dtype=np.uint32)


def _subcube_or(n: int, raw: np.ndarray) -> np.ndarray:
    """Ternary OR-transform of the feasibility bytes raw over {0,1,*}^n.

    Cell c = sum of c_q * 3^q, with digit c_q in {0, 1, 2 = *}, is the
    sub-cube of the masks whose bit q is c_q wherever c_q < 2.  For every
    c < 3^n, bit c % 27 of word c // 27 is set iff some feasible mask lies
    in sub-cube c.  The words start as the three-element transforms of the
    bytes and are extended one element at a time: 3^(n-3) uint32 words,
    6.4 MB at n = 16.
    """
    return _ternary_or(_byte_cubes()[raw], n - 3)


@functools.cache
def _ternary(n: int) -> np.ndarray:
    """Mask m -> sum of bit_q(m) * 3^q, for every mask below 2^n, as intp:
    the masks with bit n - 1 set follow those without, 3^(n-1) higher."""
    if n == 0:
        return np.zeros(1, np.intp)
    low = _ternary(n - 1)
    return np.concatenate((low, low + 3 ** (n - 1)))


_FLIPS = 1 << np.arange(MAX_GROUND_SIZE)
# _BYTE_NEAR[v, j]: bits 0..2 of near[8b + j] when byte b of the
# feasibility vector has the value v
_BYTE_NEAR = sum(
    (np.arange(256)[:, None] >> (np.arange(8) ^ 1 << q) & 1) << q for q in range(3)
).astype(np.uint16)


def check_symmetric_exchange(s: SetSystem) -> ExchangeWitness | None:
    """Test the symmetric exchange axiom.

    Returns None when the system is a delta-matroid, otherwise the first
    violating triple in ascending (X, Y, e) order, which makes witnesses
    reproducible across runs.

    Only positions p whose single flip m = X ^ {p} is infeasible can
    violate: otherwise p itself is an allowed partner.  For such a p, the
    allowed partners are the q with m ^ {q} feasible, and (X, Y, p + 1)
    violates iff Y agrees with m at every position in near[m], the
    feasible single flips of m (p among them, since X is feasible).  That
    depends on m alone: one sub-cube of {0,1,*}^n, one cell of
    _subcube_or, for each infeasible m next to a feasible set.  Every
    feasible X next to a hit violates, so the least of them is the
    witness's X, and one pass over the feasible Y gives its (Y, e).
    """
    if not s.is_proper:
        raise ImproperSystemError("symmetric exchange is undefined for improper systems")
    start = time.perf_counter()
    n, bits = s.n, s.bits
    raw = np.frombuffer(bits.to_bytes(max(1 << n >> 3, 1), "little"), dtype=np.uint8)
    f = np.unpackbits(raw, count=1 << n, bitorder="little").astype(np.uint16)
    # near[m]: the positions q whose flip m ^ {q} is feasible; q < 3 from
    # m's byte of the vector, each further q from one shifted view of f
    # (axis 1 of the reshape is bit q)
    near = _BYTE_NEAR[raw].reshape(-1)[: 1 << n]
    for q in range(3, n):
        near.reshape(-1, 2, 1 << q)[:, ::-1] |= f.reshape(-1, 2, 1 << q) << q
    ms = np.flatnonzero((f == 0) & (near != 0))
    fixed, tern = near[ms], _ternary(n)
    c = tern[ms & fixed] + 2 * tern[((1 << n) - 1) ^ fixed]
    hits = ms[_subcube_or(n, raw)[c // 27] >> c % 27 & 1 != 0]
    witness, flips = None, _FLIPS[:n]
    if hits.size:
        x = (hits[:, None] ^ flips)[near[hits, None] & flips != 0].min()
        witness = _first_witness(np.flatnonzero(f), near, x, flips)
    if logger.isEnabledFor(logging.INFO):
        logger.info("exchange n=%d: %d sets, %d cells, %.3fs",
                    n, s.num_feasible, ms.size, time.perf_counter() - start)
    return witness


def _first_witness(feas: np.ndarray, near: np.ndarray, x: int, flips: np.ndarray) -> ExchangeWitness:
    """The first (Y, e) violating with X, for an X that has one: Y differs
    from X at a blocked p and agrees with it at every allowed partner of p,
    that is, on near[X ^ {p}] it differs from X at p alone."""
    blocked = flips[near[x] & flips == 0]
    ok = (feas[:, None] ^ x) & near[x ^ blocked] == blocked
    k = int(ok.argmax())  # row-major: the first Y, then its first e
    if not ok.flat[k]:
        raise AssertionError("sub-cube transform and scan disagree")
    y, p = divmod(k, blocked.size)
    return ExchangeWitness(x=int(x), y=int(feas[y]), e=int(blocked[p]).bit_length())


def is_delta_matroid(s: SetSystem) -> bool:
    """True iff s is proper and satisfies symmetric exchange."""
    if not s.is_proper:
        return False
    return check_symmetric_exchange(s) is None


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


@functools.cache
def even_parity_indicator(n: int) -> int:
    """Integer whose bit m is set iff mask m has even popcount: the sum of
    the disjoint rank indicators of the even ranks r."""
    return sum(rank_indicator(n, r) for r in range(0, n + 1, 2))


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
    return SetSystem.from_masks(s.n, (m ^ mask for m in s.feasible_masks()))


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
