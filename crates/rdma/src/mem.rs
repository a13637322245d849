//! Simulated virtual memory.
//!
//! Every endpoint (host process or DPU proxy) owns an [`AddressSpace`]: a
//! bump allocator handing out virtual address ranges backed by real byte
//! buffers. RDMA operations move actual bytes between address spaces, so
//! data-integrity tests can verify transfers end-to-end, and registration
//! checks enforce the same bounds rules as `ibv_reg_mr`.

use std::collections::BTreeMap;

/// A virtual address within one endpoint's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Address `off` bytes past this one.
    pub fn offset(self, off: u64) -> VAddr {
        VAddr(self.0 + off)
    }
}

/// Base of the first allocation. Nonzero so a default/null `VAddr` is never
/// a valid buffer address.
const HEAP_BASE: u64 = 0x1000;

/// Page size used for registration-cost accounting (4 KiB, like the real
/// IOMMU path).
pub const PAGE_SIZE: u64 = 4096;

/// Backing of one region: real byte storage, or a bounds-checked
/// placeholder for timing-only runs (no bytes materialized).
#[derive(Debug)]
enum Region {
    Real(Vec<u8>),
    Virtual(u64),
}

impl Region {
    fn len(&self) -> u64 {
        match self {
            Region::Real(v) => v.len() as u64,
            Region::Virtual(n) => *n,
        }
    }
}

/// One endpoint's memory: allocated regions keyed by base address.
#[derive(Default, Debug)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Region>,
    next: u64,
}

/// Errors from address-space accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is not inside any allocated region.
    Unmapped {
        /// The offending address.
        addr: VAddr,
    },
    /// The access starts inside a region but runs past its end.
    OutOfBounds {
        /// Start of the access.
        addr: VAddr,
        /// Length of the access.
        len: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {:#x}", addr.0),
            MemError::OutOfBounds { addr, len } => {
                write!(f, "access [{:#x}, +{len}) crosses region end", addr.0)
            }
        }
    }
}

impl std::error::Error for MemError {}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            next: HEAP_BASE,
        }
    }

    /// Allocate `len` bytes (zero-filled). Zero-length allocations are
    /// allowed and return a unique, non-dereferenceable address.
    pub fn alloc(&mut self, len: u64) -> VAddr {
        self.alloc_region(Region::Real(vec![0u8; len as usize]), len)
    }

    /// Allocate a *virtual* region: bounds-checked like a real one, but no
    /// bytes are materialized. Reads return zeros; writes and pattern
    /// operations are validated no-ops. Used by timing-only benchmark runs
    /// so multi-gigabyte application buffers cost nothing.
    pub fn alloc_virtual(&mut self, len: u64) -> VAddr {
        self.alloc_region(Region::Virtual(len), len)
    }

    fn alloc_region(&mut self, region: Region, len: u64) -> VAddr {
        let base = self.next;
        // Keep an unmapped guard gap between regions so off-by-one accesses
        // fault instead of silently landing in a neighbour.
        self.next = base + len.max(1) + PAGE_SIZE;
        self.regions.insert(base, region);
        VAddr(base)
    }

    /// Find the region containing `addr` and the offset within it.
    fn locate(&self, addr: VAddr) -> Result<(u64, u64), MemError> {
        let (base, region) = self
            .regions
            .range(..=addr.0)
            .next_back()
            .ok_or(MemError::Unmapped { addr })?;
        let off = addr.0 - base;
        if off >= region.len() && !(off == 0 && region.len() == 0) {
            return Err(MemError::Unmapped { addr });
        }
        Ok((*base, off))
    }

    /// Check that `[addr, addr+len)` lies within a single region.
    pub fn check_range(&self, addr: VAddr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let (base, off) = self.locate(addr)?;
        let region_len = self.regions[&base].len();
        if off + len > region_len {
            return Err(MemError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Borrow `[addr, addr+len)` in place: `Some(bytes)` for a real
    /// region, `None` for a virtual one (which reads as zeros).
    pub(crate) fn slice(&self, addr: VAddr, len: u64) -> Result<Option<&[u8]>, MemError> {
        self.check_range(addr, len)?;
        if len == 0 {
            return Ok(Some(&[]));
        }
        let (base, off) = self.locate(addr)?;
        Ok(match &self.regions[&base] {
            Region::Real(buf) => Some(&buf[off as usize..(off + len) as usize]),
            Region::Virtual(_) => None,
        })
    }

    /// Mutable [`slice`](Self::slice): `None` for a virtual region, whose
    /// writes are validated no-ops.
    pub(crate) fn slice_mut(
        &mut self,
        addr: VAddr,
        len: u64,
    ) -> Result<Option<&mut [u8]>, MemError> {
        self.check_range(addr, len)?;
        if len == 0 {
            return Ok(Some(&mut []));
        }
        let (base, off) = self.locate(addr)?;
        Ok(
            match self.regions.get_mut(&base).expect("located region exists") {
                Region::Real(buf) => Some(&mut buf[off as usize..(off + len) as usize]),
                Region::Virtual(_) => None,
            },
        )
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read(&self, addr: VAddr, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(match self.slice(addr, len)? {
            Some(bytes) => bytes.to_vec(),
            None => vec![0u8; len as usize],
        })
    }

    /// Write `data` starting at `addr`.
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
        if let Some(buf) = self.slice_mut(addr, data.len() as u64)? {
            buf.copy_from_slice(data);
        }
        Ok(())
    }

    /// Read a little-endian u64 (for counters).
    pub fn read_u64(&self, addr: VAddr) -> Result<u64, MemError> {
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Write a little-endian u64 (for counters).
    pub fn write_u64(&mut self, addr: VAddr, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Fill `[addr, addr+len)` with a deterministic pattern derived from
    /// `seed` (used by data-integrity tests).
    pub fn fill_pattern(&mut self, addr: VAddr, len: u64, seed: u64) -> Result<(), MemError> {
        let data: Vec<u8> = pattern(seed).take(len as usize).collect();
        self.write(addr, &data)
    }

    /// Check `[addr, addr+len)` matches the pattern for `seed`. Virtual
    /// regions trivially verify (timing-only runs never check contents).
    pub fn verify_pattern(&self, addr: VAddr, len: u64, seed: u64) -> Result<bool, MemError> {
        Ok(match self.slice(addr, len)? {
            Some(bytes) => bytes.iter().copied().eq(pattern(seed).take(len as usize)),
            None => true,
        })
    }

    /// CRC32 (IEEE) of `[addr, addr+len)`, hashed in place. Virtual
    /// regions hash their zero-fill from a fixed zero block, so
    /// timing-only runs stay consistent end to end without
    /// materializing the buffer.
    pub fn crc32(&self, addr: VAddr, len: u64) -> Result<u32, MemError> {
        Ok(match self.slice(addr, len)? {
            Some(bytes) => crc32(bytes),
            None => {
                let mut state = !0u32;
                let mut left = len;
                while left > 0 {
                    let n = left.min(ZERO_BLOCK.len() as u64);
                    state = crc32_update(state, &ZERO_BLOCK[..n as usize]);
                    left -= n;
                }
                !state
            }
        })
    }

    /// Number of pages spanned by `[addr, addr+len)` (registration cost).
    pub fn pages_spanned(addr: VAddr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr.0 / PAGE_SIZE;
        let last = (addr.0 + len - 1) / PAGE_SIZE;
        last - first + 1
    }
}

/// Reflected IEEE 802.3 CRC32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per step of the sliced CRC loop.
const CRC_SLICES: usize = 16;

/// Slicing-by-16 lookup tables: `CRC_TABLES[k][b]` is the CRC state
/// contribution of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < CRC_SLICES {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Zero-fill a virtual region hashes as, streamed block by block.
static ZERO_BLOCK: [u8; 4096] = [0; 4096];

/// Advance a raw (pre-inverted) CRC32 state over `data`.
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    let lane = |k: usize, w: u32, shift: u32| t[k][((w >> shift) & 0xFF) as usize];
    let mut blocks = data.chunks_exact(CRC_SLICES);
    for b in &mut blocks {
        let w0 = word(b, 0) ^ state;
        let (w1, w2, w3) = (word(b, 4), word(b, 8), word(b, 12));
        state = lane(15, w0, 0)
            ^ lane(14, w0, 8)
            ^ lane(13, w0, 16)
            ^ lane(12, w0, 24)
            ^ lane(11, w1, 0)
            ^ lane(10, w1, 8)
            ^ lane(9, w1, 16)
            ^ lane(8, w1, 24)
            ^ lane(7, w2, 0)
            ^ lane(6, w2, 8)
            ^ lane(5, w2, 16)
            ^ lane(4, w2, 24)
            ^ lane(3, w3, 0)
            ^ lane(2, w3, 8)
            ^ lane(1, w3, 16)
            ^ lane(0, w3, 24);
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`. Table-driven,
/// sixteen bytes per step, so hashing runs near memory speed.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Deterministic byte pattern generator.
fn pattern(seed: u64) -> impl Iterator<Item = u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    std::iter::from_fn(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Some((state >> 24) as u8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bitwise reference CRC32 (reflected 0xEDB88320): the oracle the
    /// table-driven kernel must match bit for bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        pattern(seed).take(len).collect()
    }

    #[test]
    fn table_crc_matches_bitwise_on_every_short_length_and_offset() {
        let buf = noise(4099 + 8, 17);
        for off in 0..8 {
            for len in 0..=4099 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "offset {off} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn table_crc_matches_bitwise_on_large_buffers(len in 0usize..256 * 1024 + 1, seed in any::<u64>()) {
            let buf = noise(len + 8, seed);
            for off in 0..8 {
                let data = &buf[off..off + len];
                prop_assert_eq!(crc32(data), crc32_bitwise(data), "offset {} len {}", off, len);
            }
        }

        #[test]
        fn virtual_region_crc_is_zero_buffer_crc(len in 0u64..64 * 1024 + 1) {
            let mut asp = AddressSpace::new();
            let v = asp.alloc_virtual(len);
            prop_assert_eq!(asp.crc32(v, len).unwrap(), crc32(&vec![0u8; len as usize]));
        }
    }

    #[test]
    fn virtual_region_crc_streams_across_zero_block_boundaries() {
        let block = ZERO_BLOCK.len() as u64;
        let mut asp = AddressSpace::new();
        for len in [0, 1, block - 1, block, block + 1, 3 * block + 5] {
            let v = asp.alloc_virtual(len);
            let zeros = vec![0u8; len as usize];
            assert_eq!(
                asp.crc32(v, len).unwrap(),
                crc32_bitwise(&zeros),
                "len {len}"
            );
            // An interior sub-range hashes like zeros too.
            if len > 2 {
                assert_eq!(
                    asp.crc32(v.offset(1), len - 2).unwrap(),
                    crc32(&zeros[1..len as usize - 1])
                );
            }
        }
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(64);
        asp.write(a, &[1, 2, 3, 4]).unwrap();
        assert_eq!(asp.read(a, 4).unwrap(), vec![1, 2, 3, 4]);
        // Untouched tail is zero-filled.
        assert_eq!(asp.read(a.offset(4), 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(16);
        let b = asp.alloc(16);
        assert_ne!(a, b);
        asp.write(a, &[0xAA; 16]).unwrap();
        assert_eq!(asp.read(b, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn unmapped_access_faults() {
        let asp = AddressSpace::new();
        assert_eq!(
            asp.read(VAddr(0x10), 1),
            Err(MemError::Unmapped { addr: VAddr(0x10) })
        );
    }

    #[test]
    fn cross_region_access_faults() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8);
        let err = asp.read(a, 9).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // The guard gap after the region is unmapped.
        assert!(matches!(
            asp.read(a.offset(8), 1).unwrap_err(),
            MemError::Unmapped { .. }
        ));
    }

    #[test]
    fn interior_offset_access_works() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(32);
        asp.write(a.offset(8), &[9, 9]).unwrap();
        assert_eq!(asp.read(a.offset(8), 2).unwrap(), vec![9, 9]);
    }

    #[test]
    fn u64_counter_roundtrip() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8);
        asp.write_u64(a, 0xDEAD_BEEF_1234).unwrap();
        assert_eq!(asp.read_u64(a).unwrap(), 0xDEAD_BEEF_1234);
    }

    #[test]
    fn pattern_fill_and_verify() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(1000);
        asp.fill_pattern(a, 1000, 42).unwrap();
        assert!(asp.verify_pattern(a, 1000, 42).unwrap());
        assert!(!asp.verify_pattern(a, 1000, 43).unwrap());
    }

    #[test]
    fn zero_length_operations() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(0);
        assert_eq!(asp.read(a, 0).unwrap(), Vec::<u8>::new());
        asp.write(a, &[]).unwrap();
        assert!(asp.check_range(a, 0).is_ok());
    }

    #[test]
    fn crc32_known_vector_and_sensitivity() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut asp = AddressSpace::new();
        let a = asp.alloc(256);
        asp.fill_pattern(a, 256, 3).unwrap();
        let base = asp.crc32(a, 256).unwrap();
        // A single flipped byte must change the checksum.
        let mut bytes = asp.read(a, 256).unwrap();
        bytes[100] ^= 0x40;
        asp.write(a, &bytes).unwrap();
        assert_ne!(asp.crc32(a, 256).unwrap(), base);
    }

    #[test]
    fn pages_spanned_accounting() {
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 1), 1);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 4096), 1);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 4097), 2);
        assert_eq!(AddressSpace::pages_spanned(VAddr(4095), 2), 2);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 0), 0);
        assert_eq!(AddressSpace::pages_spanned(VAddr(8192), 8192), 2);
    }
}
