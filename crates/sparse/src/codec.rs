//! The byte-level codec under both framed formats: the workspace's only
//! CRC-32, little-endian primitive reader/writer and count-capped array
//! reader. [`crate::snapshot`] and the fabric wire protocol are schemas
//! over it.
//!
//! [`Reader`] has two instantiations:
//!
//! - **streaming**, `Reader<CrcIo<R>>` — a snapshot of unknown length
//!   read straight off disk, every byte hashed on the way through;
//! - **slice**, `Reader<&[u8]>` — a frame body whose length is already
//!   known, which adds `expect_elems` and `finish` (an `impl` on that
//!   instantiation, not a run-time branch).
//!
//! Every read names the section it was in, so a short read is
//! [`CodecError::Truncated`] with that name. **Cap rule:** a declared
//! length or element count reserves and buffers at most `CHUNK_ELEMS`
//! elements before the bytes have arrived; past that, vectors grow only
//! as data is actually read, so a forged count costs one chunk.
//!
//! [`CrcIo`] hashes what passes through it in either direction; the
//! write side is `write_le` over any `std::io::Write` (frame bodies,
//! built in memory, push `to_le_bytes` straight into their `Vec`).

use std::io::{self, Read, Write};
use std::ops::{BitOr, Shl};

/// Elements per bulk read, and the most a declared count may reserve up
/// front. Chunking also amortises the per-call `Read`/CRC overhead.
const CHUNK_ELEMS: usize = 1 << 16;

/// Why a read failed — a transit type: each format converts it to its
/// own error with one `From`.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure other than a short read.
    Io(io::Error),
    /// The input ended inside the named section.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The bytes were there but do not decode (bad UTF-8, a count the
    /// body cannot hold, bytes left over after the message).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
}

// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8: the
// checksum runs over every snapshot byte on save and load, and the load
// path exists to be much cheaper than re-encoding.

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    const NEW: Self = Self(!0);

    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut chunks = bytes.chunks_exact(8);
        let mut state = self.0;
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        self.0 = state;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice — public so frame encoders
/// can seal a buffer and fault-injection tests can re-seal a patched
/// one, proving the *semantic* checks fire, not just the checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::NEW;
    crc.update(bytes);
    crc.finish()
}

/// `Read`/`Write` adapter that hashes every byte passing through it.
#[derive(Debug)]
pub struct CrcIo<T> {
    inner: T,
    crc: Crc32,
}

impl<T> CrcIo<T> {
    /// Wraps `inner` with a fresh CRC.
    pub fn new(inner: T) -> Self {
        let crc = Crc32::NEW;
        Self { inner, crc }
    }

    /// CRC-32 of everything read or written so far.
    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    /// The wrapped stream, for the trailer a checksum does not cover.
    pub(crate) fn into_inner(self) -> T {
        self.inner
    }
}

impl<R: Read> Read for CrcIo<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

impl<W: Write> Write for CrcIo<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Little-endian primitive reader with section-named short reads.
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
}

impl<R: Read> Reader<R> {
    /// Reads from `inner`.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    fn fill(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), CodecError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => CodecError::Truncated { what },
            _ => CodecError::Io(e),
        })
    }

    /// The next `N` bytes (a magic, an id, a fixed header).
    pub fn fixed<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf, what)?;
        Ok(buf)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.fixed(what)?))
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.fixed(what)?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.fixed(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.fixed(what)?))
    }

    /// The next `len` bytes, read straight into the result under the
    /// cap rule.
    pub fn bytes(&mut self, len: usize, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(len.min(CHUNK_ELEMS));
        match (&mut self.inner).take(len as u64).read_to_end(&mut out) {
            Ok(got) if got == len => Ok(out),
            Ok(_) => Err(CodecError::Truncated { what }),
            Err(e) => Err(CodecError::Io(e)),
        }
    }

    /// `len` bytes of UTF-8.
    pub fn string(&mut self, len: usize, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.bytes(len, what)?).map_err(|_| CodecError::Malformed {
            detail: format!("{what}: invalid UTF-8"),
        })
    }

    /// `count` little-endian elements of any unsigned primitive `T`
    /// (`u8`, `u16`, `u32`, `u64`), under the cap rule.
    pub fn array<T>(&mut self, count: usize, what: &'static str) -> Result<Vec<T>, CodecError>
    where
        T: From<u8> + Shl<u32, Output = T> + BitOr<Output = T>,
    {
        let mut out = Vec::new();
        self.array_into(&mut out, count, what)?;
        Ok(out)
    }

    /// [`Reader::array`] into a caller's vector, so a test can assert the
    /// cap on what a failed read left reserved.
    fn array_into<T>(
        &mut self,
        out: &mut Vec<T>,
        count: usize,
        what: &'static str,
    ) -> Result<(), CodecError>
    where
        T: From<u8> + Shl<u32, Output = T> + BitOr<Output = T>,
    {
        let size = std::mem::size_of::<T>();
        out.reserve(count.min(CHUNK_ELEMS));
        let mut buf = vec![0u8; size * count.min(CHUNK_ELEMS)];
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(CHUNK_ELEMS);
            let bytes = &mut buf[..size * take];
            self.fill(bytes, what)?;
            out.extend(bytes.chunks_exact(size).map(|elem| {
                elem.iter()
                    .zip((0u32..).step_by(8))
                    .fold(T::from(0), |acc, (&b, shift)| acc | (T::from(b) << shift))
            }));
            remaining -= take;
        }
        Ok(())
    }
}

/// What a framed body, whose length is known, can additionally check.
impl Reader<&[u8]> {
    /// Fails unless the body still holds `count` elements of
    /// `elem_size` bytes — called before a loop that pushes one decoded
    /// entry per element, so a forged count cannot drive the reserve.
    pub fn expect_elems(&self, count: usize, size: usize, what: &str) -> Result<(), CodecError> {
        let remain = self.inner.len();
        let detail = match count.checked_mul(size) {
            Some(need) if need <= remain => return Ok(()),
            Some(need) => format!("{what}: {count} elements need {need} bytes, {remain} remain"),
            None => format!("{what}: element count {count} overflows"),
        };
        Err(CodecError::Malformed { detail })
    }

    /// Fails if any bytes are left after the message.
    pub fn finish(self, what: &str) -> Result<(), CodecError> {
        match self.inner.len() {
            0 => Ok(()),
            n => Err(CodecError::Malformed {
                detail: format!("{what}: {n} trailing bytes after message"),
            }),
        }
    }
}

/// Writes every element of `items` little-endian at its own width —
/// the mirror of [`Reader::array`], and of the scalar reads for a
/// one-element slice.
pub(crate) fn write_le<T: Copy + Into<u64>>(w: &mut impl Write, items: &[T]) -> io::Result<()> {
    let size = std::mem::size_of::<T>();
    items
        .iter()
        .try_for_each(|&v| w.write_all(&v.into().to_le_bytes()[..size]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapters_hash_exactly_what_passes_through() {
        // The canonical IEEE CRC-32 check value pins the polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let mut hashed = CrcIo::new(data.as_slice());
        let mut r = Reader::new(&mut hashed);
        r.bytes(700, "front").unwrap();
        assert_eq!(hashed.crc(), crc32(&data[..700]));
        // A short read hashes only what arrived, and says where it was.
        assert!(matches!(
            Reader::new(&mut hashed).bytes(301, "back"),
            Err(CodecError::Truncated { what: "back" })
        ));

        let mut w = CrcIo::new(Vec::new());
        write_le(&mut w, &[0xABu8]).unwrap();
        write_le(&mut w, &[0x0102u16]).unwrap();
        write_le(&mut w, &[0x0304_0506u32]).unwrap();
        write_le(&mut w, &[0x0708_090A_0B0C_0D0Eu64]).unwrap();
        write_le(&mut w, &[0x1112u16, 0x1314]).unwrap();
        let crc = w.crc();
        let bytes = w.into_inner();
        assert_eq!(
            bytes,
            [
                0xAB, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08,
                0x07, 0x12, 0x11, 0x14, 0x13
            ]
        );
        assert_eq!(crc, crc32(&bytes));
    }

    /// One read of the table below, against either instantiation.
    type Read1<R> = fn(&mut Reader<R>) -> Result<(), CodecError>;

    /// Every primitive and array read, with the bytes it consumes.
    fn reads<R: Read>() -> Vec<(usize, Read1<R>)> {
        vec![
            (3, |r| r.fixed::<3>("t").map(|v| assert_eq!(v, [1, 2, 3]))),
            (1, |r| r.u8("t").map(|v| assert_eq!(v, 1))),
            (2, |r| r.u16("t").map(|v| assert_eq!(v, 0x0201))),
            (4, |r| r.u32("t").map(|v| assert_eq!(v, 0x0403_0201))),
            (8, |r| {
                r.u64("t").map(|v| assert_eq!(v, 0x0807_0605_0403_0201))
            }),
            (5, |r| {
                r.bytes(5, "t").map(|v| assert_eq!(v, [1, 2, 3, 4, 5]))
            }),
            (6, |r| r.string(6, "t").map(|v| assert_eq!(v.len(), 6))),
            (3, |r| {
                r.array::<u8>(3, "t").map(|v| assert_eq!(v, [1, 2, 3]))
            }),
            (6, |r| {
                r.array::<u16>(3, "t")
                    .map(|v| assert_eq!(v, [0x0201, 0x0403, 0x0605]))
            }),
            (8, |r| {
                r.array::<u32>(2, "t")
                    .map(|v| assert_eq!(v, [0x0403_0201, 0x0807_0605]))
            }),
            (16, |r| {
                r.array::<u64>(2, "t")
                    .map(|v| assert_eq!(v, [0x0807_0605_0403_0201, 0x100F_0E0D_0C0B_0A09]))
            }),
        ]
    }

    #[test]
    fn every_read_cut_at_every_byte_names_its_section() {
        let data: Vec<u8> = (1..=16).collect();
        for (len, read) in reads::<&[u8]>() {
            read(&mut Reader::new(&data[..len])).expect("whole input reads");
            for cut in 0..len {
                match read(&mut Reader::new(&data[..cut])) {
                    Err(CodecError::Truncated { what: "t" }) => {}
                    other => panic!("{len}-byte read cut at {cut}: {other:?}"),
                }
            }
        }
        // The streaming instantiation is the same code over another `R`.
        for (len, read) in reads::<CrcIo<&[u8]>>() {
            read(&mut Reader::new(CrcIo::new(&data[..len]))).expect("whole input reads");
            for cut in 0..len {
                match read(&mut Reader::new(CrcIo::new(&data[..cut]))) {
                    Err(CodecError::Truncated { what: "t" }) => {}
                    other => panic!("streamed {len}-byte read cut at {cut}: {other:?}"),
                }
            }
        }
    }

    /// A forged count over `R`: typed failure, and never more than one
    /// chunk reserved for elements that did not arrive.
    fn forged_counts_stay_under_the_cap<R: Read>(open: fn(&'static [u8]) -> R) {
        const FEW: &[u8] = &[7; 20];
        for count in [u32::MAX as usize, u64::MAX as usize] {
            let mut out: Vec<u64> = Vec::new();
            let failed = Reader::new(open(FEW)).array_into(&mut out, count, "forged");
            assert!(matches!(
                failed,
                Err(CodecError::Truncated { what: "forged" })
            ));
            assert!(out.capacity() <= CHUNK_ELEMS, "{}", out.capacity());
            assert!(matches!(
                Reader::new(open(FEW)).bytes(count, "forged"),
                Err(CodecError::Truncated { what: "forged" })
            ));
        }
        // Past the cap a vector grows only as bytes arrive: 2.5 chunks
        // present under a forged count end below four chunks held.
        let arrived: &'static [u8] = vec![1u8; 5 * CHUNK_ELEMS / 2].leak();
        let mut out: Vec<u8> = Vec::new();
        let failed = Reader::new(open(arrived)).array_into(&mut out, usize::MAX, "forged");
        assert!(failed.is_err());
        assert_eq!(out.len(), 2 * CHUNK_ELEMS);
        assert!(out.capacity() <= 4 * CHUNK_ELEMS, "{}", out.capacity());
    }

    #[test]
    fn forged_counts_never_reserve_beyond_the_cap() {
        forged_counts_stay_under_the_cap::<&[u8]>(|bytes| bytes);
        forged_counts_stay_under_the_cap::<CrcIo<&[u8]>>(CrcIo::new);
    }

    #[test]
    fn arrays_longer_than_a_chunk_round_trip() {
        let items: Vec<u32> = (0..CHUNK_ELEMS as u32 + 5).map(|i| i * 7).collect();
        let mut bytes = Vec::new();
        write_le(&mut bytes, &items).unwrap();
        assert_eq!(
            Reader::new(bytes.as_slice())
                .array::<u32>(items.len(), "t")
                .unwrap(),
            items
        );
        assert_eq!(
            Reader::new(bytes.as_slice())
                .bytes(bytes.len(), "t")
                .unwrap(),
            bytes
        );
    }

    #[test]
    fn framed_bodies_check_counts_and_trailing_bytes() {
        let body = [0u8; 10];
        let r = Reader::new(&body[..]);
        r.expect_elems(2, 5, "pairs").unwrap();
        for (count, size) in [(3, 4), (usize::MAX, 2)] {
            match r.expect_elems(count, size, "pairs") {
                Err(CodecError::Malformed { detail }) => assert!(detail.contains("pairs")),
                other => panic!("unexpected {other:?}"),
            }
        }
        match r.finish("message") {
            Err(CodecError::Malformed { detail }) => assert!(detail.contains("10 trailing")),
            other => panic!("unexpected {other:?}"),
        }
        Reader::new(&body[..0]).finish("message").unwrap();
        match Reader::new(&[0xFFu8, 0xFE][..]).string(2, "name") {
            Err(CodecError::Malformed { detail }) => assert!(detail.contains("name")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
