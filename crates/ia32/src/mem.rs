//! The guest address space.
//!
//! A sparse, paged, 64-bit address space shared by the IA-32 application
//! (low 4 GiB) and, when running under the translator, the translator's
//! own data structures (counters, lookup tables) above 4 GiB — mirroring
//! how IA-32 EL lives in the same virtual address space as the translated
//! process.
//!
//! Pages carry protection bits; stores to pages marked
//! [`Prot::write_protect_code`] fault so the translator can detect
//! self-modifying code.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size (4 KiB, like both IA-32 and IPF base pages).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_MASK: u64 = PAGE_SIZE - 1;
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// Page protection attributes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable (fetchable by the interpreter / discoverable by the
    /// translator).
    pub exec: bool,
    /// Set by the translator on pages it has translated code from:
    /// stores fault with [`MemFaultKind::SmcWrite`] so translations can
    /// be invalidated.
    pub write_protect_code: bool,
}

impl Prot {
    /// Read/write data page.
    pub fn rw() -> Prot {
        Prot {
            read: true,
            write: true,
            exec: false,
            write_protect_code: false,
        }
    }

    /// Read/execute code page.
    pub fn rx() -> Prot {
        Prot {
            read: true,
            write: false,
            exec: true,
            write_protect_code: false,
        }
    }

    /// Read/write/execute page (IA-32 binaries frequently have writable
    /// code segments; this is what makes SMC possible).
    pub fn rwx() -> Prot {
        Prot {
            read: true,
            write: true,
            exec: true,
            write_protect_code: false,
        }
    }
}

/// Why a memory access faulted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFaultKind {
    /// No page mapped at the address.
    Unmapped,
    /// Page mapped without read permission.
    NoRead,
    /// Page mapped without write permission.
    NoWrite,
    /// Fetch from a non-executable page.
    NoExec,
    /// Store hit a write-protected code page (self-modifying code).
    SmcWrite,
}

/// A faulting memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Fault cause.
    pub kind: MemFaultKind,
    /// True if the access was a write.
    pub write: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} fault on {} at {:#x}",
            self.kind,
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

struct Page {
    data: Box<[u8; PAGE_SIZE as usize]>,
    prot: Prot,
}

impl Page {
    fn zeroed(prot: Prot) -> Page {
        Page {
            data: Box::new([0; PAGE_SIZE as usize]),
            prot,
        }
    }
}

/// Hashes a page base address with one multiply of the page number.
/// Every simulated load and store pays this lookup, and SipHash was
/// most of its cost. The multiplier is odd, so page numbers that
/// differ in their low bits (neighbouring pages) land in different
/// buckets; a guest is confined to 2^20 page numbers, which bounds the
/// longest chain it can build by mapping same-bucket pages to ~2^10.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, page_base: u64) {
        self.0 = (self.0 ^ (page_base >> PAGE_SHIFT)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The sparse guest address space.
pub struct GuestMem {
    pages: HashMap<u64, Page, BuildHasherDefault<PageHasher>>,
}

/// The part of `[addr, addr + left)` that lies in `addr`'s page, as
/// `(offset in page, length)`.
fn page_run(addr: u64, left: usize) -> (usize, usize) {
    let off = (addr & PAGE_MASK) as usize;
    (off, left.min(PAGE_SIZE as usize - off))
}

/// Checks that a store may touch the byte at `addr`, whose page has
/// protection `prot`.
fn check_store(prot: Prot, addr: u64) -> Result<(), MemFault> {
    let kind = if prot.write_protect_code {
        MemFaultKind::SmcWrite
    } else if !prot.write {
        MemFaultKind::NoWrite
    } else {
        return Ok(());
    };
    Err(MemFault {
        addr,
        kind,
        write: true,
    })
}

/// True if the `len` bytes at `addr` (1 ≤ `len`) lie inside one page.
fn in_one_page(addr: u64, len: u32) -> bool {
    len != 0 && (addr & PAGE_MASK) + len as u64 <= PAGE_SIZE
}

impl Default for GuestMem {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for GuestMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GuestMem {{ {} pages mapped }}", self.pages.len())
    }
}

impl GuestMem {
    /// An empty address space.
    pub fn new() -> GuestMem {
        GuestMem {
            pages: HashMap::default(),
        }
    }

    /// Maps (or re-protects) the pages covering `[addr, addr+len)`.
    /// Newly mapped pages are zero-filled; existing pages keep their data
    /// but take the new protection.
    pub fn map(&mut self, addr: u64, len: u64, prot: Prot) {
        let first = addr & !PAGE_MASK;
        let last = addr.wrapping_add(len.max(1) - 1) & !PAGE_MASK;
        let mut p = first;
        loop {
            self.pages
                .entry(p)
                .and_modify(|pg| pg.prot = prot)
                .or_insert_with(|| Page::zeroed(prot));
            if p == last {
                break;
            }
            p += PAGE_SIZE;
        }
    }

    /// Removes the pages covering `[addr, addr+len)`.
    pub fn unmap(&mut self, addr: u64, len: u64) {
        let first = addr & !PAGE_MASK;
        let last = addr.wrapping_add(len.max(1) - 1) & !PAGE_MASK;
        let mut p = first;
        loop {
            self.pages.remove(&p);
            if p == last {
                break;
            }
            p += PAGE_SIZE;
        }
    }

    /// Returns the protection of the page containing `addr`, if mapped.
    pub fn prot_of(&self, addr: u64) -> Option<Prot> {
        self.pages.get(&(addr & !PAGE_MASK)).map(|p| p.prot)
    }

    /// Marks the page containing `addr` as write-protected translated
    /// code (SMC detection) or clears the mark.
    pub fn set_code_protect(&mut self, addr: u64, on: bool) {
        if let Some(p) = self.pages.get_mut(&(addr & !PAGE_MASK)) {
            p.prot.write_protect_code = on;
        }
    }

    /// True if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr & !PAGE_MASK))
    }

    fn page(&self, addr: u64, write: bool) -> Result<&Page, MemFault> {
        self.pages.get(&(addr & !PAGE_MASK)).ok_or(MemFault {
            addr,
            kind: MemFaultKind::Unmapped,
            write,
        })
    }

    /// The page containing `addr`, if a load may touch it.
    fn readable_page(&self, addr: u64) -> Result<&Page, MemFault> {
        let p = self.page(addr, false)?;
        if !p.prot.read {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::NoRead,
                write: false,
            });
        }
        Ok(p)
    }

    /// Reads `len` bytes (≤ 8), little-endian. Accesses may span pages.
    pub fn read(&self, addr: u64, len: u32) -> Result<u64, MemFault> {
        debug_assert!(len as usize <= 8);
        if !in_one_page(addr, len) {
            return self.read_bytewise(addr, len);
        }
        // One page: its lookup and permission decide for every byte,
        // and the first byte is the one a fault names.
        let p = self.readable_page(addr)?;
        let off = (addr & PAGE_MASK) as usize;
        let mut bytes = [0u8; 8];
        bytes[..len as usize].copy_from_slice(&p.data[off..off + len as usize]);
        Ok(u64::from_le_bytes(bytes))
    }

    /// [`GuestMem::read`] one byte at a time: the path of accesses that
    /// straddle a page edge, and the reference the one-page path is
    /// tested against.
    fn read_bytewise(&self, addr: u64, len: u32) -> Result<u64, MemFault> {
        let mut v = 0u64;
        for i in 0..len as u64 {
            let a = addr.wrapping_add(i);
            let p = self.readable_page(a)?;
            v |= (p.data[(a & PAGE_MASK) as usize] as u64) << (i * 8);
        }
        Ok(v)
    }

    /// Writes the low `len` bytes of `v` at `addr`. A faulting store
    /// changes nothing (stores must be atomic with respect to faults
    /// for precise-exception tests).
    pub fn write(&mut self, addr: u64, len: u32, v: u64) -> Result<(), MemFault> {
        debug_assert!(len as usize <= 8);
        if !in_one_page(addr, len) {
            return self.write_bytewise(addr, len, v);
        }
        let page = self.pages.get_mut(&(addr & !PAGE_MASK)).ok_or(MemFault {
            addr,
            kind: MemFaultKind::Unmapped,
            write: true,
        })?;
        check_store(page.prot, addr)?;
        let off = (addr & PAGE_MASK) as usize;
        page.data[off..off + len as usize].copy_from_slice(&v.to_le_bytes()[..len as usize]);
        Ok(())
    }

    /// [`GuestMem::write`] one byte at a time (see
    /// [`GuestMem::read_bytewise`]): validates every byte's page before
    /// mutating any.
    fn write_bytewise(&mut self, addr: u64, len: u32, v: u64) -> Result<(), MemFault> {
        for i in 0..len as u64 {
            let a = addr.wrapping_add(i);
            check_store(self.page(a, true)?.prot, a)?;
        }
        for i in 0..len as u64 {
            let a = addr.wrapping_add(i);
            let page = self
                .pages
                .get_mut(&(a & !PAGE_MASK))
                .expect("validated above");
            page.data[(a & PAGE_MASK) as usize] = (v >> (i * 8)) as u8;
        }
        Ok(())
    }

    /// Writes bytes even to write-protected code pages (used by the
    /// loader and by the translator's own data structures).
    pub fn write_forced(&mut self, addr: u64, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let (off, n) = page_run(a, rest.len());
            let page = self
                .pages
                .entry(a & !PAGE_MASK)
                .or_insert_with(|| Page::zeroed(Prot::rw()));
            page.data[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            a = a.wrapping_add(n as u64);
        }
    }

    /// Fetches up to `buf.len()` instruction bytes for decode into the
    /// caller's buffer (no allocation — the decoders pass a `[u8; 16]`
    /// on their stack) and returns how many it wrote. Requires exec
    /// permission on the first byte's page; the count is short of
    /// `buf.len()` where the readable mapping ends first, and zero bytes
    /// — an unreadable first page, or an empty buffer — is an
    /// `Unmapped` fault.
    pub fn fetch_into(&self, addr: u64, buf: &mut [u8]) -> Result<usize, MemFault> {
        let first = self.page(addr, false)?;
        if !first.prot.exec {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::NoExec,
                write: false,
            });
        }
        let mut got = 0;
        let mut a = addr;
        // The first page is already resolved; later ones are looked up.
        let mut resolved = Some(first);
        while got < buf.len() {
            let page = resolved
                .take()
                .or_else(|| self.pages.get(&(a & !PAGE_MASK)));
            let Some(p) = page.filter(|p| p.prot.read) else {
                break; // shorter fetch near an unmapped boundary
            };
            let (off, n) = page_run(a, buf.len() - got);
            buf[got..got + n].copy_from_slice(&p.data[off..off + n]);
            got += n;
            a = a.wrapping_add(n as u64);
        }
        if got == 0 {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::Unmapped,
                write: false,
            });
        }
        Ok(got)
    }

    /// [`GuestMem::fetch_into`] a fresh `Vec` of up to `len` bytes.
    pub fn fetch(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = vec![0; len];
        let got = self.fetch_into(addr, &mut out)?;
        out.truncate(got);
        Ok(out)
    }

    /// Copies a byte range out (reads must all succeed).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        while out.len() < len {
            let p = self.readable_page(a)?;
            let (off, n) = page_run(a, len - out.len());
            out.extend_from_slice(&p.data[off..off + n]);
            a = a.wrapping_add(n as u64);
        }
        Ok(out)
    }

    /// 32-bit read convenience.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemFault> {
        Ok(self.read(addr, 4)? as u32)
    }

    /// 32-bit write convenience.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemFault> {
        self.write(addr, 4, v as u64)
    }

    /// Number of mapped pages (for diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x2000, Prot::rw());
        m.write(0x1234, 4, 0xDEADBEEF).unwrap();
        assert_eq!(m.read(0x1234, 4).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read(0x1236, 2).unwrap(), 0xDEAD);
    }

    #[test]
    fn unmapped_faults() {
        let m = GuestMem::new();
        let e = m.read(0x1000, 4).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::Unmapped);
        assert!(!e.write);
    }

    #[test]
    fn cross_page_access() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x2000, Prot::rw());
        m.write(0x1FFE, 4, 0x11223344).unwrap();
        assert_eq!(m.read(0x1FFE, 4).unwrap(), 0x11223344);
        assert_eq!(m.read(0x2000, 2).unwrap(), 0x1122);
    }

    #[test]
    fn cross_page_fault_leaves_memory_unchanged() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x1000, Prot::rw()); // only one page
        let before = m.read(0x1FFC, 4).unwrap();
        let e = m.write(0x1FFE, 4, 0xAABBCCDD).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::Unmapped);
        assert_eq!(e.addr, 0x2000);
        assert_eq!(m.read(0x1FFC, 4).unwrap(), before, "no partial write");
    }

    #[test]
    fn write_protect_code_faults() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x1000, Prot::rwx());
        m.set_code_protect(0x1000, true);
        let e = m.write(0x1100, 1, 0x90).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::SmcWrite);
        // Forced write still works (loader path).
        m.write_forced(0x1100, &[0x90]);
        assert_eq!(m.read(0x1100, 1).unwrap(), 0x90);
        m.set_code_protect(0x1000, false);
        m.write(0x1100, 1, 0x91).unwrap();
    }

    #[test]
    fn fetch_requires_exec() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x1000, Prot::rw());
        let e = m.fetch(0x1000, 4).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::NoExec);
        m.map(0x1000, 0x1000, Prot::rx());
        assert_eq!(m.fetch(0x1000, 4).unwrap().len(), 4);
    }

    /// Bulk accessors copy per page run; their edge cases are part of
    /// the contract.
    #[test]
    fn bulk_accessors_cross_pages() {
        let mut m = GuestMem::new();
        m.map(0x1000, 0x2000, Prot::rx());
        let pattern: Vec<u8> = (0..0x1800u32).map(|i| (i * 7 + 3) as u8).collect();
        m.write_forced(0x1400, &pattern); // lands in both mapped pages
        assert_eq!(m.read_bytes(0x1400, 0x1800).unwrap(), pattern);
        assert_eq!(m.fetch(0x1400, 0x1800).unwrap(), pattern);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(m.read(0x1400 + i as u64, 1).unwrap(), b as u64);
        }
        // write_forced maps what is missing, read/write, and creates
        // nothing for an empty slice.
        m.write_forced(0x2FFE, &[1, 2, 3, 4]);
        assert_eq!(m.prot_of(0x3000), Some(Prot::rw()));
        assert_eq!(m.prot_of(0x2000), Some(Prot::rx()), "existing page kept");
        m.write_forced(0x9000, &[]);
        assert!(!m.is_mapped(0x9000));
        // fetch: shorter at the end of the readable mapping, exec
        // checked on the first page only.
        m.unmap(0x3000, 1);
        assert_eq!(m.fetch(0x2FF0, 64).unwrap().len(), 16);
        m.map(0x3000, 0x1000, Prot::rw());
        assert_eq!(m.fetch(0x2FF0, 64).unwrap().len(), 64);
        assert_eq!(m.fetch(0x3000, 4).unwrap_err().kind, MemFaultKind::NoExec);
        assert_eq!(m.fetch(0x2000, 0).unwrap_err().kind, MemFaultKind::Unmapped);
        // read_bytes names the first unreadable byte.
        m.unmap(0x3000, 1);
        let e = m.read_bytes(0x2FF0, 64).unwrap_err();
        assert_eq!(
            (e.addr, e.kind, e.write),
            (0x3000, MemFaultKind::Unmapped, false)
        );
    }

    /// The one-lookup path of `read`/`write` against the byte-wise
    /// reference: same value, same fault (address, kind, direction),
    /// and a faulting store mutates nothing — over every access size,
    /// every offset within 8 bytes of a page edge, and every mix of
    /// neighbouring-page states.
    #[test]
    fn one_page_path_matches_bytewise_reference() {
        const LO: u64 = 0x7000;
        const HI: u64 = 0x8000;
        let states: [Option<Prot>; 5] = [
            None,
            Some(Prot::rw()),
            Some(Prot::rx()), // no write
            Some(Prot {
                read: false,
                ..Prot::rw()
            }),
            Some(Prot {
                write_protect_code: true,
                ..Prot::rwx()
            }),
        ];
        let build = |lo: Option<Prot>, hi: Option<Prot>| {
            let mut m = GuestMem::new();
            for (base, st) in [(LO, lo), (HI, hi)] {
                if let Some(prot) = st {
                    let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (base + i * 13) as u8).collect();
                    m.write_forced(base, &fill);
                    m.map(base, PAGE_SIZE, prot);
                }
            }
            m
        };
        let snapshot = |m: &GuestMem| {
            let mut pages: Vec<(u64, Vec<u8>)> =
                m.pages.iter().map(|(&b, p)| (b, p.data.to_vec())).collect();
            pages.sort();
            pages
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut checked = 0u32;
        for lo in states {
            for hi in states {
                for len in 1..=8u32 {
                    for delta in -8i64..=8 {
                        let addr = HI.wrapping_add_signed(delta);
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let (mut fast, mut slow) = (build(lo, hi), build(lo, hi));
                        assert_eq!(
                            fast.read(addr, len),
                            slow.read_bytewise(addr, len),
                            "read {len}@{addr:#x} lo={lo:?} hi={hi:?}"
                        );
                        let before = snapshot(&fast);
                        let (rf, rs) =
                            (fast.write(addr, len, x), slow.write_bytewise(addr, len, x));
                        assert_eq!(rf, rs, "write {len}@{addr:#x} lo={lo:?} hi={hi:?}");
                        assert_eq!(snapshot(&fast), snapshot(&slow));
                        if rf.is_err() {
                            assert_eq!(snapshot(&fast), before, "faulting store mutated memory");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 25 * 8 * 17);
    }

    /// `fetch_into` (and `fetch`, its `Vec` front-end) against a
    /// byte-at-a-time reference: same bytes, same count where the
    /// readable mapping ends, same fault — over page-straddling
    /// windows, every mix of neighbouring-page states (unmapped,
    /// no-exec, exec-only) and lengths from zero to past a decode
    /// window. Bytes of the caller's buffer past the count stay as they
    /// were.
    #[test]
    fn fetch_into_matches_bytewise_reference() {
        const LO: u64 = 0x7000;
        const HI: u64 = 0x8000;
        let states: [Option<Prot>; 5] = [
            None,
            Some(Prot::rx()),
            Some(Prot::rw()), // no exec
            Some(Prot {
                read: false,
                ..Prot::rx()
            }), // exec only
            Some(Prot::rwx()),
        ];
        let reference = |m: &GuestMem, addr: u64, len: usize| -> Result<Vec<u8>, MemFault> {
            let fault = |kind| MemFault {
                addr,
                kind,
                write: false,
            };
            let first = m.prot_of(addr).ok_or(fault(MemFaultKind::Unmapped))?;
            if !first.exec {
                return Err(fault(MemFaultKind::NoExec));
            }
            let mut out = Vec::new();
            for i in 0..len as u64 {
                let a = addr.wrapping_add(i);
                if !m.prot_of(a).is_some_and(|p| p.read) {
                    break;
                }
                out.push(m.pages[&(a & !PAGE_MASK)].data[(a & PAGE_MASK) as usize]);
            }
            if out.is_empty() {
                return Err(fault(MemFaultKind::Unmapped));
            }
            Ok(out)
        };
        let mut checked = 0u32;
        for lo in states {
            for hi in states {
                let mut m = GuestMem::new();
                for (base, st) in [(LO, lo), (HI, hi)] {
                    if let Some(prot) = st {
                        let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (base + i * 13) as u8).collect();
                        m.write_forced(base, &fill);
                        m.map(base, PAGE_SIZE, prot);
                    }
                }
                for len in [0usize, 1, 2, 15, 16, 17] {
                    for delta in -17i64..=1 {
                        let addr = HI.wrapping_add_signed(delta);
                        let want = reference(&m, addr, len);
                        let mut buf = [0xAAu8; 17];
                        let got = m.fetch_into(addr, &mut buf[..len]);
                        assert_eq!(
                            got,
                            want.as_ref().map(Vec::len).map_err(|e| *e),
                            "{len}@{addr:#x} lo={lo:?} hi={hi:?}"
                        );
                        let n = got.unwrap_or(0);
                        assert_eq!(buf[..n], want.clone().unwrap_or_default()[..]);
                        assert!(buf[n..].iter().all(|&b| b == 0xAA), "wrote past the count");
                        assert_eq!(m.fetch(addr, len), want);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 25 * 6 * 19);
    }

    #[test]
    fn high_addresses_work() {
        // Translator data lives above 4 GiB.
        let mut m = GuestMem::new();
        m.map(0x1_0000_0000, 0x1000, Prot::rw());
        m.write(0x1_0000_0008, 8, u64::MAX).unwrap();
        assert_eq!(m.read(0x1_0000_0008, 8).unwrap(), u64::MAX);
    }
}
