//! The sentry's byte primitives, one of each: the field reader
//! ([`Fields`]), the string writer ([`put_str`]) and [`crc32`]. The wire
//! payload ([`event`](crate::event)), the journal's records, incident
//! bodies and digests ([`journal`](crate::journal)) and the checkpoint's
//! envelope ([`durable`](crate::durable)) all go through them. Fields
//! are little-endian; a read takes a field only if the bytes hold all
//! of it, and [`Fields::finish`] refuses a byte left over, so a decoder
//! built on them is its encoder's inverse and nothing more.

/// CRC-32 (IEEE 802.3, reflected) slice-by-8 tables, built at compile
/// time: `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]`
/// is entry `b` carried through `k` more zero bytes, so eight table
/// reads fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the same polynomial the device sim's
/// CRC-on-DMA check models, reused here as the record and checkpoint
/// checksum. Eight bytes a step (slice-by-8), then the bytewise step
/// for the rest; the value is the bytewise definition's.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `s` as a `u16` length and its UTF-8, cut to at most `max`
/// (≤ `u16::MAX`) bytes at a character boundary.
pub(crate) fn put_str(s: &str, max: usize, out: &mut Vec<u8>) {
    let len = s.floor_char_boundary(max);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// The bytes of a body not read yet; each read takes a field off the
/// front, or is `None` if the body is too short to hold it.
pub(crate) struct Fields<'a>(pub(crate) &'a [u8]);

impl<'a> Fields<'a> {
    /// The next `n` bytes, if the body has them.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `len` bytes as a string, if the body has them and they
    /// are UTF-8.
    pub(crate) fn str(&mut self, len: u16) -> Option<&'a str> {
        std::str::from_utf8(self.take(usize::from(len))?).ok()
    }

    /// `value`, if the body has been read to its last byte.
    pub(crate) fn finish<T>(self, value: T) -> Option<T> {
        self.0.is_empty().then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition slice-by-8 must agree with: one table
    /// read a byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_crc_at_every_length_and_alignment() {
        // Bytes from a 64-bit LCG: every byte value, no pattern a
        // table could share with its neighbour.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..300 + 8)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "{len} bytes from {start}"
                );
            }
        }
        // Runs of one byte value, where a table mix-up would cancel.
        for b in [0x00, 0xFF, 0x80, 0x01] {
            let run = [b; 67];
            assert_eq!(crc32(&run), crc32_bytewise(&run), "a run of {b:#04x}");
        }
    }
}
