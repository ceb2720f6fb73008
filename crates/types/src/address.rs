//! Physical addressing and interleave maps.
//!
//! HMC physical addresses are encoded in a 34-bit field containing vault,
//! bank and address (row/offset) bits (paper §III.B). Rather than a single
//! fixed structure, the specification lets the implementer define the map
//! most optimized for the target access characteristics, and provides
//! default modes that marry the vault/bank structure to the desired maximum
//! block request size.
//!
//! The **default low-interleave map** places the least significant address
//! bits (above the block offset) in the vault field, followed immediately by
//! the bank field — forcing sequential addresses to interleave first across
//! vaults, then across banks within a vault, to avoid bank conflicts.
//!
//! This module provides that default plus a bank-first variant, a linear
//! (locality-preserving) variant, and a fully custom field ordering, all
//! behind the object-safe [`AddressMap`] trait.

use crate::error::{HmcError, Result};
use crate::{BankId, VaultId};

/// A 34-bit HMC physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Number of bits in the HMC physical address field.
    pub const BITS: u32 = 34;

    /// Maximum representable address value.
    pub const MAX: u64 = (1 << Self::BITS) - 1;

    /// Construct, validating the 34-bit range.
    pub fn new(addr: u64) -> Result<Self> {
        if addr > Self::MAX {
            return Err(HmcError::InvalidAddress {
                addr,
                reason: "exceeds the 34-bit HMC address field".into(),
            });
        }
        Ok(PhysAddr(addr))
    }

    /// Construct without range checking (masks to 34 bits).
    pub fn new_truncating(addr: u64) -> Self {
        PhysAddr(addr & Self::MAX)
    }

    /// Raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<PhysAddr> for u64 {
    fn from(a: PhysAddr) -> u64 {
        a.0
    }
}

/// A physical address decomposed into device-structure coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Target vault.
    pub vault: VaultId,
    /// Target bank within the vault.
    pub bank: BankId,
    /// Row (block index) within the bank.
    pub row: u64,
    /// Byte offset within the block.
    pub offset: u32,
}

/// Geometry of an address map: how many bits each field occupies.
///
/// All dimensions must be powers of two so fields pack into disjoint bit
/// ranges of the 34-bit address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapGeometry {
    /// Block (maximum request) size in bytes; the low `log2` bits are the
    /// in-block offset.
    pub block_bytes: u32,
    /// Number of vaults on the device.
    pub vaults: u16,
    /// Number of banks per vault.
    pub banks: u16,
    /// Number of rows (blocks) per bank.
    pub rows: u64,
}

impl MapGeometry {
    /// Validate the geometry: every dimension a nonzero power of two, and
    /// the combined field widths fitting the 34-bit address space.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("block_bytes", self.block_bytes as u64),
            ("vaults", self.vaults as u64),
            ("banks", self.banks as u64),
            ("rows", self.rows),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(HmcError::InvalidConfig(format!(
                    "address-map geometry: {name} = {v} must be a nonzero power of two"
                )));
            }
        }
        let bits = self.offset_bits() + self.vault_bits() + self.bank_bits() + self.row_bits();
        if bits > PhysAddr::BITS {
            return Err(HmcError::InvalidConfig(format!(
                "address-map geometry needs {bits} bits, exceeding the 34-bit field"
            )));
        }
        Ok(())
    }

    /// Bits of in-block offset.
    pub fn offset_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// Bits of vault index.
    pub fn vault_bits(&self) -> u32 {
        (self.vaults as u64).trailing_zeros()
    }

    /// Bits of bank index.
    pub fn bank_bits(&self) -> u32 {
        (self.banks as u64).trailing_zeros()
    }

    /// Bits of row index.
    pub fn row_bits(&self) -> u32 {
        self.rows.trailing_zeros()
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.block_bytes as u64 * self.vaults as u64 * self.banks as u64 * self.rows
    }
}

/// The non-offset fields of an address map, in placement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// The vault-index field.
    Vault,
    /// The bank-index field.
    Bank,
    /// The row-index field.
    Row,
}

/// An address mapping scheme: bidirectional translation between flat 34-bit
/// physical addresses and `(vault, bank, row, offset)` coordinates.
pub trait AddressMap: Send + Sync {
    /// The geometry this map was built for.
    fn geometry(&self) -> MapGeometry;

    /// Field placement from least significant (above the offset) upward.
    fn order(&self) -> [Field; 3];

    /// Human-readable name for traces and reports.
    fn name(&self) -> &'static str;

    /// Decode a physical address into structure coordinates.
    fn decode(&self, addr: PhysAddr) -> Result<DecodedAddr> {
        self.locate(addr).ok_or_else(|| HmcError::InvalidAddress {
            addr: addr.raw(),
            reason: format!(
                "beyond device capacity of {} bytes",
                self.geometry().capacity_bytes()
            ),
        })
    }

    /// [`AddressMap::decode`] without the error value: `None` for an
    /// address beyond the device capacity. It never allocates, so the
    /// simulator's per-packet decode costs the same for failing
    /// requests as for good ones.
    fn locate(&self, addr: PhysAddr) -> Option<DecodedAddr> {
        let g = self.geometry();
        if addr.raw() >= g.capacity_bytes() {
            return None;
        }
        let offset = (addr.raw() & (g.block_bytes as u64 - 1)) as u32;
        let mut rest = addr.raw() >> g.offset_bits();
        let mut vault = 0u64;
        let mut bank = 0u64;
        let mut row = 0u64;
        for field in self.order() {
            let bits = match field {
                Field::Vault => g.vault_bits(),
                Field::Bank => g.bank_bits(),
                Field::Row => g.row_bits(),
            };
            let val = rest & ((1u64 << bits) - 1);
            rest >>= bits;
            match field {
                Field::Vault => vault = val,
                Field::Bank => bank = val,
                Field::Row => row = val,
            }
        }
        Some(DecodedAddr {
            vault: vault as VaultId,
            bank: bank as BankId,
            row,
            offset,
        })
    }

    /// Encode structure coordinates back into a physical address.
    fn encode(&self, d: DecodedAddr) -> Result<PhysAddr> {
        let g = self.geometry();
        if d.vault as u64 >= g.vaults as u64 {
            return Err(HmcError::vault_range(d.vault, g.vaults));
        }
        if d.bank as u64 >= g.banks as u64 {
            return Err(HmcError::OutOfRange {
                what: "bank",
                index: d.bank as u64,
                limit: g.banks as u64,
            });
        }
        if d.row >= g.rows {
            return Err(HmcError::OutOfRange {
                what: "row",
                index: d.row,
                limit: g.rows,
            });
        }
        if d.offset as u64 >= g.block_bytes as u64 {
            return Err(HmcError::OutOfRange {
                what: "offset",
                index: d.offset as u64,
                limit: g.block_bytes as u64,
            });
        }
        let mut addr = 0u64;
        let mut shift = g.offset_bits();
        for field in self.order() {
            let (bits, val) = match field {
                Field::Vault => (g.vault_bits(), d.vault as u64),
                Field::Bank => (g.bank_bits(), d.bank as u64),
                Field::Row => (g.row_bits(), d.row),
            };
            addr |= val << shift;
            shift += bits;
        }
        addr |= d.offset as u64;
        PhysAddr::new(addr)
    }

    /// Fast path: vault of an address (used every cycle by the crossbar).
    fn vault_of(&self, addr: PhysAddr) -> Result<VaultId> {
        Ok(self.decode(addr)?.vault)
    }

    /// Fast path: bank of an address (used by conflict recognition).
    fn bank_of(&self, addr: PhysAddr) -> Result<BankId> {
        Ok(self.decode(addr)?.bank)
    }
}

macro_rules! simple_map {
    ($(#[$doc:meta])* $name:ident, $order:expr, $label:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            geometry: MapGeometry,
        }

        impl $name {
            /// Build the map over the given geometry, validating it.
            pub fn new(geometry: MapGeometry) -> Result<Self> {
                geometry.validate()?;
                Ok(Self { geometry })
            }
        }

        impl AddressMap for $name {
            fn geometry(&self) -> MapGeometry {
                self.geometry
            }
            fn order(&self) -> [Field; 3] {
                $order
            }
            fn name(&self) -> &'static str {
                $label
            }
        }
    };
}

simple_map!(
    /// The specification's default low-interleave map: from the LSB upward,
    /// `[offset][vault][bank][row]`. Sequential addresses interleave first
    /// across vaults, then across banks within a vault (paper §III.B).
    LowInterleaveMap,
    [Field::Vault, Field::Bank, Field::Row],
    "low-interleave"
);

simple_map!(
    /// Bank-first variant: `[offset][bank][vault][row]`. Sequential
    /// addresses sweep the banks of one vault before moving on — a
    /// deliberately conflict-prone map, useful as an ablation baseline.
    BankFirstMap,
    [Field::Bank, Field::Vault, Field::Row],
    "bank-first"
);

simple_map!(
    /// Linear / locality-preserving map: `[offset][row][bank][vault]`.
    /// Sequential addresses stay within one bank's rows, then one vault's
    /// banks — the closest analogue of a traditional DIMM layout.
    LinearMap,
    [Field::Row, Field::Bank, Field::Vault],
    "linear"
);

/// A user-defined field ordering (the spec "permits the implementer and
/// user to define an address mapping scheme", §III.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomMap {
    geometry: MapGeometry,
    order: [Field; 3],
}

impl CustomMap {
    /// Build a custom map; `order` must name each field exactly once.
    pub fn new(geometry: MapGeometry, order: [Field; 3]) -> Result<Self> {
        geometry.validate()?;
        let mut seen = [false; 3];
        for f in order {
            let idx = match f {
                Field::Vault => 0,
                Field::Bank => 1,
                Field::Row => 2,
            };
            if seen[idx] {
                return Err(HmcError::InvalidConfig(format!(
                    "custom address map repeats field {f:?}"
                )));
            }
            seen[idx] = true;
        }
        Ok(CustomMap { geometry, order })
    }
}

impl AddressMap for CustomMap {
    fn geometry(&self) -> MapGeometry {
        self.geometry
    }
    fn order(&self) -> [Field; 3] {
        self.order
    }
    fn name(&self) -> &'static str {
        "custom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> MapGeometry {
        MapGeometry {
            block_bytes: 64,
            vaults: 16,
            banks: 8,
            rows: 1 << 18, // 16 MiB banks of 64-byte blocks => 2 GiB device
        }
    }

    #[test]
    fn phys_addr_range_enforced() {
        assert!(PhysAddr::new(PhysAddr::MAX).is_ok());
        assert!(PhysAddr::new(PhysAddr::MAX + 1).is_err());
        assert_eq!(
            PhysAddr::new_truncating(PhysAddr::MAX + 1).raw(),
            0,
            "truncation masks to 34 bits"
        );
    }

    #[test]
    fn geometry_bit_accounting() {
        let g = small_geom();
        g.validate().unwrap();
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.vault_bits(), 4);
        assert_eq!(g.bank_bits(), 3);
        assert_eq!(g.row_bits(), 18);
        assert_eq!(g.capacity_bytes(), 2 << 30);
    }

    #[test]
    fn geometry_rejects_non_power_of_two() {
        let mut g = small_geom();
        g.banks = 6;
        assert!(g.validate().is_err());
        let mut g = small_geom();
        g.vaults = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn geometry_rejects_overflowing_bits() {
        let g = MapGeometry {
            block_bytes: 256,
            vaults: 32,
            banks: 16,
            rows: 1 << 25, // 8 + 5 + 4 + 25 = 42 bits > 34
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn low_interleave_places_vault_bits_first() {
        // §III.B: sequential block-aligned addresses interleave across
        // vaults first, then banks.
        let m = LowInterleaveMap::new(small_geom()).unwrap();
        for i in 0..16u64 {
            let d = m.decode(PhysAddr::new(i * 64).unwrap()).unwrap();
            assert_eq!(d.vault, i as u16, "block {i} must land in vault {i}");
            assert_eq!(d.bank, 0);
        }
        // Block 16 wraps vaults and bumps the bank.
        let d = m.decode(PhysAddr::new(16 * 64).unwrap()).unwrap();
        assert_eq!(d.vault, 0);
        assert_eq!(d.bank, 1);
    }

    #[test]
    fn bank_first_places_bank_bits_first() {
        let m = BankFirstMap::new(small_geom()).unwrap();
        for i in 0..8u64 {
            let d = m.decode(PhysAddr::new(i * 64).unwrap()).unwrap();
            assert_eq!(d.bank, i as u16);
            assert_eq!(d.vault, 0);
        }
        let d = m.decode(PhysAddr::new(8 * 64).unwrap()).unwrap();
        assert_eq!(d.bank, 0);
        assert_eq!(d.vault, 1);
    }

    #[test]
    fn linear_map_keeps_sequential_blocks_in_one_bank() {
        let m = LinearMap::new(small_geom()).unwrap();
        for i in 0..100u64 {
            let d = m.decode(PhysAddr::new(i * 64).unwrap()).unwrap();
            assert_eq!(d.vault, 0);
            assert_eq!(d.bank, 0);
            assert_eq!(d.row, i);
        }
    }

    #[test]
    fn decode_extracts_offset() {
        let m = LowInterleaveMap::new(small_geom()).unwrap();
        let d = m.decode(PhysAddr::new(64 + 17).unwrap()).unwrap();
        assert_eq!(d.offset, 17);
        assert_eq!(d.vault, 1);
    }

    #[test]
    fn decode_rejects_addresses_beyond_capacity() {
        let m = LowInterleaveMap::new(small_geom()).unwrap();
        let over = small_geom().capacity_bytes();
        assert!(m.decode(PhysAddr::new(over).unwrap()).is_err());
    }

    #[test]
    fn encode_decode_roundtrip_on_all_maps() {
        let g = MapGeometry {
            block_bytes: 32,
            vaults: 4,
            banks: 4,
            rows: 8,
        };
        let maps: Vec<Box<dyn AddressMap>> = vec![
            Box::new(LowInterleaveMap::new(g).unwrap()),
            Box::new(BankFirstMap::new(g).unwrap()),
            Box::new(LinearMap::new(g).unwrap()),
            Box::new(CustomMap::new(g, [Field::Row, Field::Vault, Field::Bank]).unwrap()),
        ];
        for m in &maps {
            for addr in 0..g.capacity_bytes() {
                let pa = PhysAddr::new(addr).unwrap();
                let d = m.decode(pa).unwrap();
                assert_eq!(m.encode(d).unwrap(), pa, "{} roundtrip {addr}", m.name());
            }
        }
    }

    #[test]
    fn maps_are_bijective() {
        // Every address decodes to a distinct coordinate tuple.
        let g = MapGeometry {
            block_bytes: 16,
            vaults: 4,
            banks: 2,
            rows: 4,
        };
        let m = LowInterleaveMap::new(g).unwrap();
        let mut seen = std::collections::HashSet::new();
        for addr in 0..g.capacity_bytes() {
            let d = m.decode(PhysAddr::new(addr).unwrap()).unwrap();
            assert!(seen.insert((d.vault, d.bank, d.row, d.offset)));
        }
        assert_eq!(seen.len() as u64, g.capacity_bytes());
    }

    #[test]
    fn encode_validates_coordinates() {
        let m = LowInterleaveMap::new(small_geom()).unwrap();
        let base = DecodedAddr {
            vault: 0,
            bank: 0,
            row: 0,
            offset: 0,
        };
        assert!(m.encode(DecodedAddr { vault: 16, ..base }).is_err());
        assert!(m.encode(DecodedAddr { bank: 8, ..base }).is_err());
        assert!(m.encode(DecodedAddr { row: 1 << 18, ..base }).is_err());
        assert!(m.encode(DecodedAddr { offset: 64, ..base }).is_err());
    }

    #[test]
    fn custom_map_rejects_duplicate_fields() {
        let g = small_geom();
        assert!(CustomMap::new(g, [Field::Vault, Field::Vault, Field::Row]).is_err());
        assert!(CustomMap::new(g, [Field::Vault, Field::Bank, Field::Row]).is_ok());
    }

    #[test]
    fn vault_and_bank_fast_paths_match_decode() {
        let m = LowInterleaveMap::new(small_geom()).unwrap();
        for addr in (0..(1u64 << 16)).step_by(64) {
            let pa = PhysAddr::new(addr).unwrap();
            let d = m.decode(pa).unwrap();
            assert_eq!(m.vault_of(pa).unwrap(), d.vault);
            assert_eq!(m.bank_of(pa).unwrap(), d.bank);
        }
    }
}
