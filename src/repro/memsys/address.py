"""Physical-address decoding, including FgNVM SAG/CD extraction.

The bit layout, from least-significant upwards, is::

    | cacheline offset | column | channel | rank | bank | row |

i.e. consecutive cache lines walk the columns of one row, then move to the
next channel/rank/bank, and only then to the next row.  This is the
row-interleaved layout NVMain uses by default: streaming accesses enjoy
row-buffer locality inside a bank while larger strides spread across banks.

FgNVM coordinates are derived from the in-bank (row, column) pair:

* ``sag`` (subarray group) — the high-order row bits: each SAG owns a
  contiguous block of rows, exactly as SALP subdivides a DRAM bank.
* ``cd`` (column division) — the high-order column bits: each CD owns a
  contiguous run of cache lines, matching the paper's choice to group the
  bits of one cache line into one tile (Section 3.2).

For the MANY_BANKS organisation the (bank, sag, cd) triple is folded into
one flat independent-bank index so the rest of the system can treat every
unit as an ordinary bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.params import BankArchitecture, OrgParams
from ..errors import AddressError
from ..units import log2_exact
from .request import DecodedAddress


@dataclass(frozen=True)
class _Field:
    """One bit-field of the address layout."""

    shift: int
    mask: int

    def insert(self, value: int) -> int:
        if value & ~self.mask:
            raise AddressError(
                f"value {value} does not fit in field of width "
                f"{self.mask.bit_length()}"
            )
        return value << self.shift


class AddressMapper:
    """Bidirectional mapping between physical addresses and coordinates."""

    def __init__(self, org: OrgParams):
        self.org = org
        offset_bits = log2_exact(org.cacheline_bytes)
        col_bits = log2_exact(org.columns_per_row)
        channel_bits = log2_exact(org.channels)
        rank_bits = log2_exact(org.ranks_per_channel)
        bank_bits = log2_exact(org.banks_per_rank)
        row_bits = log2_exact(org.rows_per_bank)

        shift = offset_bits
        self._col = _Field(shift, (1 << col_bits) - 1)
        shift += col_bits
        self._channel = _Field(shift, (1 << channel_bits) - 1)
        shift += channel_bits
        self._rank = _Field(shift, (1 << rank_bits) - 1)
        shift += rank_bits
        self._bank = _Field(shift, (1 << bank_bits) - 1)
        shift += bank_bits
        self._row = _Field(shift, (1 << row_bits) - 1)
        shift += row_bits
        self.address_bits = shift
        self.offset_bits = offset_bits
        #: Addresses beyond the capacity wrap under this mask.
        self._wrap_mask = (1 << shift) - 1

        # SAG/CD derivation shifts within the bank-local coordinates.
        self._rows_per_sag = org.rows_per_sag
        self._cols_per_cd = org.columns_per_cd
        self._cd_span = org.cd_span
        self._cd_interleaved = org.cd_interleaved
        self._sag_interleaved = org.sag_interleaved
        #: ``decode``'s field layout as plain ints: (shift, mask) per
        #: field, read without a method call per field.
        self._layout = tuple(
            value for field in (self._row, self._col, self._bank,
                                self._rank, self._channel)
            for value in (field.shift, field.mask)
        )
        self._many_banks = org.architecture is BankArchitecture.MANY_BANKS

    @property
    def capacity_bytes(self) -> int:
        """Total bytes addressable by this mapping."""
        return 1 << self.address_bits

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address into full coordinates.

        Addresses beyond the configured capacity wrap (synthetic traces may
        roam a larger nominal footprint than the simulated device).
        """
        if address < 0:
            raise AddressError(f"negative address: {address}")
        address &= self._wrap_mask
        (row_shift, row_mask, col_shift, col_mask, bank_shift, bank_mask,
         rank_shift, rank_mask, channel_shift, channel_mask) = self._layout
        row = (address >> row_shift) & row_mask
        col = (address >> col_shift) & col_mask
        bank = (address >> bank_shift) & bank_mask
        rank = (address >> rank_shift) & rank_mask
        if self._sag_interleaved:
            sag = row % self.org.subarray_groups
        else:
            sag = row // self._rows_per_sag
        # ``cd`` is the base column division; when a cache line spans
        # several CDs (cd_span > 1) the access touches [cd, cd + span).
        if self._cd_span > 1:
            cd = col * self._cd_span
        elif self._cd_interleaved:
            cd = col % self.org.column_divisions
        else:
            cd = col // self._cols_per_cd
        # ``flat_bank`` indexes the owning channel's bank list: ranks
        # share the channel buses but their banks are independent.
        flat_bank = rank * self.org.banks_per_rank + bank
        if self._many_banks:
            # Fold (rank, bank, sag, cd) into one independent-bank
            # index; the in-unit row/column become the residues.
            flat_bank = (
                flat_bank * self.org.subarray_groups
                * self.org.column_divisions
                + sag * self.org.column_divisions
                + cd
            )
        # ``tuple.__new__`` skips the named tuple's generated Python
        # ``__new__``: one call fewer per decoded request.
        return tuple.__new__(DecodedAddress, (
            (address >> channel_shift) & channel_mask,
            rank, bank, row, col, sag, cd, flat_bank,
        ))

    def encode(
        self,
        channel: int = 0,
        rank: int = 0,
        bank: int = 0,
        row: int = 0,
        col: int = 0,
    ) -> int:
        """Compose a byte address from coordinates (offset zero).

        Inverse of :meth:`decode` over in-range coordinates:

        >>> from repro.config import fgnvm
        >>> mapper = AddressMapper(fgnvm().org)
        >>> addr = mapper.encode(bank=3, row=77, col=5)
        >>> decoded = mapper.decode(addr)
        >>> (decoded.bank, decoded.row, decoded.col)
        (3, 77, 5)
        """
        return (
            self._channel.insert(channel)
            | self._rank.insert(rank)
            | self._bank.insert(bank)
            | self._row.insert(row)
            | self._col.insert(col)
        )

    def local_row(self, decoded: DecodedAddress) -> int:
        """Row index within the decoded SAG (MANY_BANKS unit row)."""
        return decoded.row % self._rows_per_sag

    def local_col(self, decoded: DecodedAddress) -> int:
        """Column index within the decoded CD (MANY_BANKS unit column)."""
        return decoded.col % self._cols_per_cd

    def banks_per_channel(self) -> int:
        """Bank-model instances one channel's controller owns."""
        banks = self.org.ranks_per_channel * self.org.banks_per_rank
        if self.org.architecture is BankArchitecture.MANY_BANKS:
            banks *= self.org.subarray_groups * self.org.column_divisions
        return banks

    def independent_banks(self) -> int:
        """How many independently schedulable banks this mapping exposes."""
        return self.org.channels * self.banks_per_channel()
