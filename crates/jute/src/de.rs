//! Primitive jute decoders.

use crate::error::JuteError;

/// Upper bound on any single length prefix, to reject corrupt or hostile input
/// before allocating. ZooKeeper's default jute.maxbuffer is 1 MB; we allow
/// 16 MB to accommodate encrypted payload growth.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// A cursor-style decoder over jute-encoded bytes.
#[derive(Debug, Clone)]
pub struct InputArchive<'a> {
    data: &'a [u8],
    position: usize,
}

impl<'a> InputArchive<'a> {
    /// Wraps `data` for decoding.
    pub fn new(data: &'a [u8]) -> Self {
        InputArchive { data, position: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.position
    }

    /// True if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the archive has been fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`JuteError::TrailingBytes`] if bytes remain.
    pub fn expect_exhausted(&self) -> Result<(), JuteError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(JuteError::TrailingBytes { remaining: self.remaining() })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], JuteError> {
        if self.remaining() < n {
            return Err(JuteError::UnexpectedEof { what, needed: n, remaining: self.remaining() });
        }
        let slice = &self.data[self.position..self.position + n];
        self.position += n;
        Ok(slice)
    }

    /// Reads a boolean.
    pub fn read_bool(&mut self, what: &'static str) -> Result<bool, JuteError> {
        Ok(self.take(1, what)?[0] != 0)
    }

    /// Reads a single raw byte (used for compact enum tags, e.g. the ZAB
    /// replica-to-replica message codec).
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, JuteError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian signed 32-bit integer.
    pub fn read_i32(&mut self, what: &'static str) -> Result<i32, JuteError> {
        let bytes = self.take(4, what)?;
        Ok(i32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a big-endian signed 64-bit integer.
    pub fn read_i64(&mut self, what: &'static str) -> Result<i64, JuteError> {
        let bytes = self.take(8, what)?;
        Ok(i64::from_be_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
        ]))
    }

    /// Reads a length-prefixed byte buffer.
    pub fn read_buffer(&mut self, what: &'static str) -> Result<Vec<u8>, JuteError> {
        Ok(self.read_buffer_slice(what)?.to_vec())
    }

    /// Reads a length-prefixed byte buffer as a borrow of the input, for
    /// callers that move the bytes into a container of their own.
    pub fn read_buffer_slice(&mut self, what: &'static str) -> Result<&'a [u8], JuteError> {
        let len = self.read_i32(what)?;
        if len < 0 || len as usize > MAX_FIELD_LEN {
            return Err(JuteError::InvalidLength { what, length: len as i64 });
        }
        self.take(len as usize, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self, what: &'static str) -> Result<String, JuteError> {
        let bytes = self.read_buffer(what)?;
        String::from_utf8(bytes).map_err(|_| JuteError::InvalidUtf8 { what })
    }

    /// Reads a length-prefixed vector of strings.
    pub fn read_string_vec(&mut self, what: &'static str) -> Result<Vec<String>, JuteError> {
        let count = self.read_i32(what)?;
        if count < 0 || count as usize > MAX_FIELD_LEN {
            return Err(JuteError::InvalidLength { what, length: count as i64 });
        }
        let mut out = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            out.push(self.read_string(what)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::OutputArchive;

    #[test]
    fn roundtrip_all_primitives() {
        let mut out = OutputArchive::new();
        out.write_u8(0xa7);
        out.write_bool(true);
        out.write_i32(-5);
        out.write_i64(1 << 40);
        out.write_buffer(b"payload");
        out.write_string("/znode/path");
        out.write_string_vec(&["a".into(), "b".into()]);
        let bytes = out.into_bytes();

        let mut input = InputArchive::new(&bytes);
        assert_eq!(input.read_u8("tag").unwrap(), 0xa7);
        assert!(input.read_bool("b").unwrap());
        assert_eq!(input.read_i32("i").unwrap(), -5);
        assert_eq!(input.read_i64("l").unwrap(), 1 << 40);
        assert_eq!(input.read_buffer("buf").unwrap(), b"payload");
        assert_eq!(input.read_string("s").unwrap(), "/znode/path");
        assert_eq!(input.read_string_vec("v").unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert!(input.expect_exhausted().is_ok());
    }

    #[test]
    fn eof_is_reported_with_context() {
        let mut input = InputArchive::new(&[0, 0]);
        let err = input.read_i32("xid").unwrap_err();
        assert_eq!(err, JuteError::UnexpectedEof { what: "xid", needed: 4, remaining: 2 });
    }

    #[test]
    fn negative_length_is_rejected() {
        let mut out = OutputArchive::new();
        out.write_i32(-1);
        let bytes = out.into_bytes();
        let mut input = InputArchive::new(&bytes);
        assert!(matches!(input.read_buffer("data"), Err(JuteError::InvalidLength { .. })));
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut out = OutputArchive::new();
        out.write_i32((MAX_FIELD_LEN + 1) as i32);
        let bytes = out.into_bytes();
        let mut input = InputArchive::new(&bytes);
        assert!(matches!(input.read_buffer("data"), Err(JuteError::InvalidLength { .. })));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut out = OutputArchive::new();
        out.write_buffer(&[0xff, 0xfe]);
        let bytes = out.into_bytes();
        let mut input = InputArchive::new(&bytes);
        assert_eq!(input.read_string("path").unwrap_err(), JuteError::InvalidUtf8 { what: "path" });
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let input = InputArchive::new(&[1, 2, 3]);
        assert_eq!(
            input.expect_exhausted().unwrap_err(),
            JuteError::TrailingBytes { remaining: 3 }
        );
    }
}
