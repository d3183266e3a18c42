"""Fixed-length bit vectors with fast XOR/popcount.

QSTR-MED represents each block's string-speed signature as an *eigen
sequence*: one bit per (physical word-line layer, string).  The similarity
distance between two blocks is ``popcount(a XOR b)`` (Section V-C of the
paper), so the whole scheme reduces to cheap bitwise arithmetic.  Python
integers give us arbitrary-width registers with O(n/64) XOR and a native
``bit_count``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence


class BitVector:
    """An immutable fixed-length vector of bits.

    Bit 0 is the *first* bit appended/supplied; internally bits are packed
    into one Python int with bit ``i`` of the integer holding element ``i``.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, bits: Iterable[int] = (), *, length: int = None, value: int = None) -> None:
        if value is not None:
            if length is None:
                raise ValueError("length is required when constructing from a raw value")
            if value < 0:
                raise ValueError("raw value must be non-negative")
            if value.bit_length() > length:
                raise ValueError(
                    f"raw value needs {value.bit_length()} bits, only {length} given"
                )
            self._value = value
            self._length = length
            return
        acc = 0
        count = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {bit!r}")
            if bit:
                acc |= 1 << count
            count += 1
        if length is not None:
            if count > length:
                raise ValueError(f"got {count} bits for declared length {length}")
            count = length
        self._value = acc
        self._length = count

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        """A vector of ``length`` zero bits."""
        return cls(length=length, value=0)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        """A vector of ``length`` one bits."""
        return cls(length=length, value=(1 << length) - 1 if length else 0)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse ``"1001 0011"`` (spaces/underscores ignored)."""
        cleaned = text.replace(" ", "").replace("_", "")
        return cls(int(ch) for ch in cleaned)

    @classmethod
    def concat(cls, parts: Sequence["BitVector"]) -> "BitVector":
        """Join vectors in order; part 0 supplies the lowest-index bits."""
        acc = 0
        offset = 0
        for part in parts:
            acc |= part._value << offset
            offset += part._length
        return cls(length=offset, value=acc)

    # -- core operations ---------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self._length != other._length:
            raise ValueError(
                f"length mismatch: {self._length} vs {other._length}"
            )
        return BitVector(length=self._length, value=self._value ^ other._value)

    def popcount(self) -> int:
        """Number of set bits."""
        return self._value.bit_count()

    def hamming_distance(self, other: "BitVector") -> int:
        """popcount(self XOR other) — the QSTR-MED similarity distance."""
        if self._length != other._length:
            raise ValueError(
                f"length mismatch: {self._length} vs {other._length}"
            )
        return (self._value ^ other._value).bit_count()

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if isinstance(index, slice):
            return BitVector(self[i] for i in range(*index.indices(self._length)))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return (self._value >> index) & 1

    def __iter__(self) -> Iterator[int]:
        value = self._value
        for _ in range(self._length):
            yield value & 1
            value >>= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        return f"BitVector('{self.to_string()}')"

    # -- conversions ---------------------------------------------------------

    def to_bits(self) -> List[int]:
        """The bits as a list of ints."""
        return list(self)

    def to_string(self, group: int = 4) -> str:
        """Render as e.g. ``"1001 0011"`` (bit 0 first)."""
        digits = "".join(str(b) for b in self)
        if group <= 0:
            return digits
        chunks = [digits[i : i + group] for i in range(0, len(digits), group)]
        return " ".join(chunks)

    @property
    def value(self) -> int:
        """The packed integer representation."""
        return self._value
