//! Physical-address → DRAM-coordinate decoding.

use crate::config::DramOrganization;
use nvsim_types::Addr;
use serde::{Deserialize, Serialize};

/// One field of the DRAM coordinate tuple, used to describe bit layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingField {
    /// Channel select bits.
    Channel,
    /// Rank select bits.
    Rank,
    /// Bank-group select bits.
    BankGroup,
    /// Bank select bits (within a group).
    Bank,
    /// Column bits.
    Column,
    /// Row bits.
    Row,
}

/// A decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the group.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column index within the row.
    pub column: u32,
}

impl DecodedAddr {
    /// Flat bank identifier within a channel (rank, group, bank combined).
    pub fn flat_bank(&self, org: &DramOrganization) -> usize {
        ((self.rank * org.bank_groups + self.bank_group) * org.banks_per_group + self.bank) as usize
    }
}

/// Bit-sliced address mapping: the physical address (after dropping the
/// intra-access offset bits) is consumed LSB-first by the fields in
/// `order`.
///
/// The default order `[Channel, Column, BankGroup, Bank, Rank, Row]`
/// interleaves consecutive cache lines across channels, then strides
/// columns within a row — the common performance-oriented mapping.
///
/// # Example
///
/// ```
/// use nvsim_dram::{AddressMapping, DramConfig};
/// use nvsim_types::Addr;
///
/// let cfg = DramConfig::ddr4_2666_4gb();
/// let map = AddressMapping::standard(&cfg.organization);
/// let d0 = map.decode(Addr::new(0));
/// let d1 = map.decode(Addr::new(64));
/// // Consecutive lines land on different channels.
/// assert_ne!(d0.channel, d1.channel);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapping {
    order: Vec<MappingField>,
    org: DramOrganization,
}

impl AddressMapping {
    /// Creates the standard channel-interleaved mapping.
    pub fn standard(org: &DramOrganization) -> Self {
        AddressMapping {
            order: vec![
                MappingField::Channel,
                MappingField::Column,
                MappingField::BankGroup,
                MappingField::Bank,
                MappingField::Rank,
                MappingField::Row,
            ],
            org: *org,
        }
    }

    /// Creates a mapping with a custom LSB-first field order.
    ///
    /// # Panics
    ///
    /// Panics if `order` does not contain each field exactly once.
    pub fn with_order(org: &DramOrganization, order: Vec<MappingField>) -> Self {
        use MappingField::*;
        for f in [Channel, Rank, BankGroup, Bank, Column, Row] {
            assert_eq!(
                order.iter().filter(|&&x| x == f).count(),
                1,
                "field {f:?} must appear exactly once"
            );
        }
        AddressMapping { order, org: *org }
    }

    fn field_size(&self, f: MappingField) -> u64 {
        match f {
            MappingField::Channel => self.org.channels as u64,
            MappingField::Rank => self.org.ranks as u64,
            MappingField::BankGroup => self.org.bank_groups as u64,
            MappingField::Bank => self.org.banks_per_group as u64,
            MappingField::Column => self.org.columns as u64,
            MappingField::Row => self.org.rows as u64,
        }
    }

    /// Decodes a physical address into DRAM coordinates. Addresses beyond
    /// the device capacity wrap (the row field takes the modulo).
    pub fn decode(&self, addr: Addr) -> DecodedAddr {
        let mut v = addr.raw() / self.org.access_bytes as u64;
        let mut d = DecodedAddr::default();
        for &f in &self.order {
            let size = self.field_size(f);
            let val = (v % size) as u32; // nvsim-lint: allow(cast-truncation) — field sizes are u32 organization parameters, so v % size < 2^32
            v /= size;
            match f {
                MappingField::Channel => d.channel = val,
                MappingField::Rank => d.rank = val,
                MappingField::BankGroup => d.bank_group = val,
                MappingField::Bank => d.bank = val,
                MappingField::Column => d.column = val,
                MappingField::Row => d.row = val,
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn org() -> DramOrganization {
        DramConfig::ddr4_2666_4gb().organization
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let map = AddressMapping::standard(&org());
        let d: Vec<_> = (0..4)
            .map(|i| map.decode(Addr::new(i * 64)).channel)
            .collect();
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_row_consecutive_columns() {
        let map = AddressMapping::standard(&org());
        // Same channel, stride channels*64 bytes apart -> adjacent columns.
        let a = map.decode(Addr::new(0));
        let b = map.decode(Addr::new(4 * 64));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn decode_stays_in_bounds() {
        let o = org();
        let map = AddressMapping::standard(&o);
        for i in 0..10_000u64 {
            let d = map.decode(Addr::new(i * 64 * 977)); // pseudo-random stride
            assert!(d.channel < o.channels);
            assert!(d.rank < o.ranks);
            assert!(d.bank_group < o.bank_groups);
            assert!(d.bank < o.banks_per_group);
            assert!(d.row < o.rows);
            assert!(d.column < o.columns);
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test-only membership set, never iterated"
    )]
    fn flat_bank_is_unique_per_coordinate() {
        let o = org();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..o.ranks {
            for bg in 0..o.bank_groups {
                for b in 0..o.banks_per_group {
                    let d = DecodedAddr {
                        rank,
                        bank_group: bg,
                        bank: b,
                        ..Default::default()
                    };
                    assert!(seen.insert(d.flat_bank(&o)));
                }
            }
        }
        assert_eq!(seen.len(), (o.ranks * o.banks_per_rank()) as usize);
    }

    #[test]
    fn row_major_order_keeps_rows_contiguous() {
        let o = org();
        use MappingField::*;
        let map = AddressMapping::with_order(&o, vec![Column, Channel, BankGroup, Bank, Rank, Row]);
        let a = map.decode(Addr::new(0));
        let b = map.decode(Addr::new(64));
        assert_eq!(a.channel, b.channel);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn duplicate_field_rejected() {
        use MappingField::*;
        AddressMapping::with_order(&org(), vec![Channel, Channel, BankGroup, Bank, Rank, Row]);
    }

    #[test]
    fn addresses_beyond_capacity_wrap() {
        let o = org();
        let map = AddressMapping::standard(&o);
        let cap = o.capacity_bytes();
        let a = map.decode(Addr::new(0x40));
        let b = map.decode(Addr::new(cap + 0x40));
        assert_eq!(a, b);
    }
}
