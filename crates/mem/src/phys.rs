//! Per-node physical memory (DRAM).

use crate::addr::{PhysAddr, PageNum, PAGE_SIZE, WORD_SIZE};
use crate::error::MemError;

/// The DRAM of one node, addressed physically from zero.
///
/// All word accesses are little-endian 32-bit, matching the i386 family.
///
/// # Examples
///
/// ```
/// use shrimp_mem::{PhysicalMemory, PhysAddr};
///
/// let mut dram = PhysicalMemory::new(4);
/// dram.write_bytes(PhysAddr::new(8), &[1, 2, 3, 4])?;
/// assert_eq!(dram.read_word(PhysAddr::new(8))?, 0x0403_0201);
/// # Ok::<(), shrimp_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// One slot per installed page. A page's bytes are allocated on its
    /// first write and an absent page reads as zeros, so installing DRAM
    /// costs nothing for the pages a run never writes — building a
    /// machine stays cheap however much memory each node has, and
    /// however the host allocator recycles earlier machines' memory.
    pages: Vec<Option<Box<[u8]>>>,
}

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// What every never-written page reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// Splits the byte range `[start, start + len)` at page boundaries:
/// `(page index, offset in page, byte count)` per piece.
fn page_chunks(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (page, off) = (at / PAGE_BYTES, at % PAGE_BYTES);
            let n = (PAGE_BYTES - off).min(end - at);
            at += n;
            (page, off, n)
        })
    })
}

impl PhysicalMemory {
    /// Creates zero-filled DRAM of `pages` pages.
    pub fn new(pages: u64) -> Self {
        PhysicalMemory {
            pages: vec![None; pages as usize],
        }
    }

    /// Installed size in bytes.
    pub fn size(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    fn page(&self, index: usize) -> &[u8] {
        self.pages[index].as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8] {
        self.pages[index].get_or_insert_with(|| vec![0; PAGE_BYTES].into_boxed_slice())
    }

    /// Number of installed pages.
    pub fn num_pages(&self) -> u64 {
        self.size() / PAGE_SIZE
    }

    /// True if `page` is an installed page.
    pub fn contains_page(&self, page: PageNum) -> bool {
        page.raw() < self.num_pages()
    }

    fn check(&self, addr: PhysAddr, len: u64) -> Result<usize, MemError> {
        let end = addr.raw().checked_add(len).ok_or(MemError::OutOfRange {
            addr,
            size: self.size(),
        })?;
        if end > self.size() {
            return Err(MemError::OutOfRange {
                addr,
                size: self.size(),
            });
        }
        Ok(addr.raw() as usize)
    }

    /// Reads one little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] for unaligned addresses and
    /// [`MemError::OutOfRange`] for addresses past installed memory.
    pub fn read_word(&self, addr: PhysAddr) -> Result<u32, MemError> {
        if !addr.is_word_aligned() {
            return Err(MemError::Misaligned {
                addr,
                align: WORD_SIZE,
            });
        }
        let i = self.check(addr, WORD_SIZE)?;
        // Aligned words never straddle a page.
        let (page, off) = (i / PAGE_BYTES, i % PAGE_BYTES);
        Ok(u32::from_le_bytes(self.page(page)[off..off + 4].try_into().unwrap()))
    }

    /// Writes one little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] for unaligned addresses and
    /// [`MemError::OutOfRange`] for addresses past installed memory.
    pub fn write_word(&mut self, addr: PhysAddr, value: u32) -> Result<(), MemError> {
        if !addr.is_word_aligned() {
            return Err(MemError::Misaligned {
                addr,
                align: WORD_SIZE,
            });
        }
        let i = self.check(addr, WORD_SIZE)?;
        let (page, off) = (i / PAGE_BYTES, i % PAGE_BYTES);
        self.page_mut(page)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn read_bytes_into(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let i = self.check(addr, buf.len() as u64)?;
        let mut pos = 0;
        for (page, off, n) in page_chunks(i, buf.len()) {
            buf[pos..pos + n].copy_from_slice(&self.page(page)[off..off + n]);
            pos += n;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn read_bytes(&self, addr: PhysAddr, len: u64) -> Result<Vec<u8>, MemError> {
        let mut buf = vec![0u8; len as usize];
        self.read_bytes_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes a byte slice starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, bytes.len() as u64)?;
        let mut pos = 0;
        for (page, off, n) in page_chunks(i, bytes.len()) {
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Fills a byte range with a value.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not fully installed.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, len)?;
        for (page, off, n) in page_chunks(i, len as usize) {
            self.page_mut(page)[off..off + n].fill(value);
        }
        Ok(())
    }

    /// A read-only view of one whole page.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the page is not installed.
    pub fn page_slice(&self, page: PageNum) -> Result<&[u8], MemError> {
        self.check(page.base(), PAGE_SIZE)?;
        Ok(self.page(page.raw() as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_little_endian() {
        let mut m = PhysicalMemory::new(1);
        m.write_word(PhysAddr::new(0), 0x1234_5678).unwrap();
        assert_eq!(m.read_word(PhysAddr::new(0)).unwrap(), 0x1234_5678);
        assert_eq!(m.read_bytes(PhysAddr::new(0), 4).unwrap(), vec![0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn misaligned_word_rejected() {
        let mut m = PhysicalMemory::new(1);
        assert!(matches!(
            m.read_word(PhysAddr::new(2)),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            m.write_word(PhysAddr::new(1), 0),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = PhysicalMemory::new(1);
        let end = PhysAddr::new(PAGE_SIZE);
        assert!(matches!(m.read_word(end), Err(MemError::OutOfRange { .. })));
        assert!(matches!(
            m.write_bytes(PhysAddr::new(PAGE_SIZE - 2), &[0; 4]),
            Err(MemError::OutOfRange { .. })
        ));
        // Last aligned word is fine.
        m.write_word(PhysAddr::new(PAGE_SIZE - 4), 1).unwrap();
    }

    #[test]
    fn overflowing_range_rejected() {
        let m = PhysicalMemory::new(1);
        assert!(matches!(
            m.read_bytes(PhysAddr::new(u64::MAX - 1), 4),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn byte_ops_roundtrip() {
        let mut m = PhysicalMemory::new(2);
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(PhysAddr::new(100), &data).unwrap();
        assert_eq!(m.read_bytes(PhysAddr::new(100), 256).unwrap(), data);
        let mut buf = [0u8; 16];
        m.read_bytes_into(PhysAddr::new(100), &mut buf).unwrap();
        assert_eq!(&buf, &data[..16]);
    }

    #[test]
    fn fill_and_page_slice() {
        let mut m = PhysicalMemory::new(2);
        m.fill(PageNum::new(1).base(), PAGE_SIZE, 0xab).unwrap();
        let page = m.page_slice(PageNum::new(1)).unwrap();
        assert!(page.iter().all(|&b| b == 0xab));
        assert!(m.page_slice(PageNum::new(2)).is_err());
    }

    #[test]
    fn geometry_accessors() {
        let m = PhysicalMemory::new(8);
        assert_eq!(m.size(), 8 * PAGE_SIZE);
        assert_eq!(m.num_pages(), 8);
        assert!(m.contains_page(PageNum::new(7)));
        assert!(!m.contains_page(PageNum::new(8)));
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let m = PhysicalMemory::new(1);
        assert!(m.read_bytes(PhysAddr::new(0), 64).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn ranges_straddle_pages_and_only_written_pages_are_allocated() {
        let mut m = PhysicalMemory::new(4);
        let data: Vec<u8> = (0..PAGE_SIZE + 200).map(|i| (i % 251) as u8 + 1).collect();
        let start = PhysAddr::new(2 * PAGE_SIZE - 100);
        m.write_bytes(start, &data).unwrap();
        assert_eq!(m.read_bytes(start, data.len() as u64).unwrap(), data);
        // The write touched pages 1..=3; page 0 was never written.
        assert_eq!(m.pages.iter().filter(|p| p.is_some()).count(), 3);
        assert!(m.page_slice(PageNum::new(0)).unwrap().iter().all(|&b| b == 0));
        // Bytes around the written range still read as zeros.
        assert_eq!(m.read_bytes(PhysAddr::new(2 * PAGE_SIZE - 104), 4).unwrap(), vec![0; 4]);
    }
}
