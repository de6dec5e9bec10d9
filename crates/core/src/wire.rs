//! The workspace's little-endian binary codec.
//!
//! The erase schemes'
//! [`export_state`](crate::scheme::EraseScheme::export_state) blobs and
//! `aero-ssd`'s drive snapshots are hand-rolled with these helpers, so
//! every binary state the simulator persists goes through one codec.
//! Floats travel as their IEEE-754 bit patterns, so every value (NaN
//! payloads and `-0.0` included) round-trips bit-exactly. Decoding is
//! strictly bounds-checked and never panics: every read returns `None` past
//! the end without consuming anything, and callers size allocations against
//! [`Reader::remaining`] so corrupt length fields cannot trigger huge
//! reservations.

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

/// A bounds-checked little-endian cursor over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_exhaustion() {
        let nan_with_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut out = Vec::new();
        out.push(0xA5);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, nan_with_payload);
        put_f64(&mut out, 2.5);
        out.extend_from_slice(b"tail");
        let mut r = Reader::new(&out);
        assert_eq!(r.remaining(), 41);
        assert_eq!(r.u8(), Some(0xA5));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Some(0x7FF8_0000_DEAD_BEEF));
        assert_eq!(r.f64(), Some(2.5));
        assert_eq!(r.take(5), None, "a short take consumes nothing");
        assert_eq!(r.take(4), Some(&b"tail"[..]));
        assert_eq!(r.take(0), Some(&[][..]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
        assert_eq!(r.f64(), None);
        assert_eq!(r.take(1), None);
    }

    #[test]
    fn short_reads_do_not_consume() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32(), None);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8(), Some(1));
    }
}
