//! Physical-address → DRAM-coordinate decoding.

use crate::config::DramOrganization;
use nvsim_types::Addr;
use serde::{Deserialize, Serialize};

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

/// One field of the address: `size` values starting at bit `shift` of
/// the access index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Field {
    shift: u32,
    /// `size - 1`; zero for a field that lies wholly above bit 63.
    mask: u64,
}

impl Field {
    #[inline]
    fn extract(self, v: u64) -> u32 {
        ((v >> self.shift) & self.mask) as u32 // nvsim-lint: allow(cast-truncation) — the mask is a u32 organization parameter minus one, so the value is < 2^32
    }
}

/// Bit-sliced address mapping: the physical address, after dropping the
/// intra-access offset bits, is consumed LSB-first by channel, column,
/// bank group, bank, rank and row.
///
/// That order interleaves consecutive cache lines across channels, then
/// strides columns within a row — the common performance-oriented
/// mapping. Every organization size is a power of two
/// ([`DramOrganization::validate`]), so each field is a shift and a mask
/// computed once in [`new`](AddressMapping::new), and a decode does no
/// division.
///
/// # Example
///
/// ```
/// use nvsim_dram::{AddressMapping, DramConfig};
/// use nvsim_types::Addr;
///
/// let cfg = DramConfig::ddr4_2666_4gb();
/// let map = AddressMapping::new(&cfg.organization);
/// let d0 = map.decode(Addr::new(0));
/// let d1 = map.decode(Addr::new(64));
/// // Consecutive lines land on different channels.
/// assert_ne!(d0.channel, d1.channel);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapping {
    /// log2 of the access size.
    offset_bits: u32,
    channel: Field,
    column: Field,
    bank_group: Field,
    bank: Field,
    rank: Field,
    row: Field,
}

impl AddressMapping {
    /// Creates the mapping of a validated organization (every size a
    /// power of two).
    pub fn new(org: &DramOrganization) -> Self {
        debug_assert!(org.validate().is_ok(), "unvalidated organization {org:?}");
        let mut shift = 0;
        let mut next = |size: u32| {
            // A field starting at bit 64 or above reads zero, as the
            // quotient of repeated division would.
            let field = if shift < u64::BITS {
                Field {
                    shift,
                    mask: u64::from(size) - 1,
                }
            } else {
                Field { shift: 0, mask: 0 }
            };
            shift += size.trailing_zeros();
            field
        };
        AddressMapping {
            offset_bits: org.access_bytes.trailing_zeros(),
            channel: next(org.channels),
            column: next(org.columns),
            bank_group: next(org.bank_groups),
            bank: next(org.banks_per_group),
            rank: next(org.ranks),
            row: next(org.rows),
        }
    }

    /// Decodes a physical address into DRAM coordinates. Addresses beyond
    /// the device capacity wrap (the row field takes the modulo).
    #[inline]
    pub fn decode(&self, addr: Addr) -> DecodedAddr {
        let v = addr.raw() >> self.offset_bits;
        DecodedAddr {
            channel: self.channel.extract(v),
            rank: self.rank.extract(v),
            bank_group: self.bank_group.extract(v),
            bank: self.bank.extract(v),
            row: self.row.extract(v),
            column: self.column.extract(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use nvsim_types::DetRng;

    fn org() -> DramOrganization {
        DramConfig::ddr4_2666_4gb().organization
    }

    /// The divide-and-modulo decode the bit slice replaced: each field,
    /// LSB first, takes the remainder by its size and passes on the
    /// quotient.
    fn reference_decode(org: &DramOrganization, addr: Addr) -> DecodedAddr {
        let mut v = addr.raw() / org.access_bytes as u64;
        let mut field = |size: u32| {
            let val = (v % size as u64) as u32;
            v /= size as u64;
            val
        };
        let channel = field(org.channels);
        let column = field(org.columns);
        let bank_group = field(org.bank_groups);
        let bank = field(org.banks_per_group);
        let rank = field(org.ranks);
        let row = field(org.rows);
        DecodedAddr {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        }
    }

    #[test]
    fn matches_divide_and_modulo_reference() {
        // The memory-mode near cache: on-DIMM DDR4 with one channel and
        // 8192 rows.
        let mut near_cache = DramConfig::ddr4_2666_4gb().organization;
        near_cache.channels = 1;
        near_cache.rows = 8192;
        let orgs = [
            DramConfig::ddr4_2666_4gb().organization,
            DramConfig::on_dimm_512mb().organization,
            DramConfig::ddr3_1333().organization,
            DramConfig::pcm().organization,
            near_cache,
        ];
        let mut rng = DetRng::seed_from(0x6d61_7070);
        for o in orgs {
            o.validate().unwrap();
            let map = AddressMapping::new(&o);
            let cap = o.capacity_bytes();
            let mut addrs: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
            // Below the capacity, at its edges, and past it (wrapping).
            addrs.extend((0..10_000).map(|_| rng.range_u64(0, cap)));
            addrs.extend([0, 63, 64, cap - 1, cap, cap + 64, 3 * cap + 4096]);
            addrs.extend([u64::MAX, u64::MAX - 63, 1 << 63]);
            for a in addrs {
                let a = Addr::new(a);
                assert_eq!(map.decode(a), reference_decode(&o, a), "{o:?} at {a}");
            }
        }
    }

    #[test]
    fn fields_above_bit_63_read_zero() {
        // 2^31 channels and columns start the bank field at bit 64.
        let mut o = org();
        o.channels = 1 << 31;
        o.columns = 1 << 31;
        o.access_bytes = 1 << 20;
        let map = AddressMapping::new(&o);
        for a in [0, 1 << 40, u64::MAX, 0x1234_5678_9abc_def0] {
            let a = Addr::new(a);
            assert_eq!(map.decode(a), reference_decode(&o, a), "{a}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let map = AddressMapping::new(&org());
        let d: Vec<_> = (0..4)
            .map(|i| map.decode(Addr::new(i * 64)).channel)
            .collect();
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_row_consecutive_columns() {
        let map = AddressMapping::new(&org());
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
        let map = AddressMapping::new(&o);
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
    fn addresses_beyond_capacity_wrap() {
        let o = org();
        let map = AddressMapping::new(&o);
        let cap = o.capacity_bytes();
        let a = map.decode(Addr::new(0x40));
        let b = map.decode(Addr::new(cap + 0x40));
        assert_eq!(a, b);
    }
}
