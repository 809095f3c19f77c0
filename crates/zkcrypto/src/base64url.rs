//! URL-safe Base64 (RFC 4648 §5) without padding.
//!
//! SecureKeeper encodes each encrypted path chunk with the URL-safe alphabet
//! so that the ciphertext never contains a `/` character, which would break
//! ZooKeeper's path hierarchy. Padding characters are omitted because `=` is
//! not a desirable character in znode names either. Encoding grows data by
//! roughly 33%, which the paper discusses as part of its message-size
//! overhead (Table 2).

use crate::error::CryptoError;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Sentinel marking bytes outside the alphabet in [`DECODE_TABLE`].
const INVALID: u8 = 0xff;

/// Byte-indexed inverse of [`ALPHABET`]: one unconditional load per input
/// character instead of a five-arm range match.
static DECODE_TABLE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes `data` with the URL-safe alphabet, no padding.
///
/// # Example
///
/// ```
/// assert_eq!(zkcrypto::base64url::encode(b"zookeeper"), "em9va2VlcGVy");
/// assert_eq!(zkcrypto::base64url::encode(&[0xfb, 0xff]), "-_8");
/// ```
#[inline]
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(encoded_len(data.len()));
    encode_into(data, &mut out);
    out
}

/// Appends the encoding of `data` to `out`, as [`encode`] would return it,
/// so a caller assembling a larger string needs no intermediate one.
#[inline]
pub fn encode_into(data: &[u8], out: &mut String) {
    out.reserve(encoded_len(data.len()));
    let (triples, rest) = data.as_chunks::<3>();
    let mut push = |triple: u32, sextets: usize| {
        for shift in [18, 12, 6, 0].into_iter().take(sextets) {
            out.push(ALPHABET[(triple >> shift) as usize & 0x3f] as char);
        }
    };
    for &[b0, b1, b2] in triples {
        push((b0 as u32) << 16 | (b1 as u32) << 8 | b2 as u32, 4);
    }
    match *rest {
        [b0] => push((b0 as u32) << 16, 2),
        [b0, b1] => push((b0 as u32) << 16 | (b1 as u32) << 8, 3),
        _ => {}
    }
}

/// Decodes a URL-safe Base64 string produced by [`encode`].
///
/// # Errors
///
/// Returns [`CryptoError::InvalidBase64`] if the input contains characters
/// outside the URL-safe alphabet or has an impossible length (`len % 4 == 1`).
#[inline]
pub fn decode(text: &str) -> Result<Vec<u8>, CryptoError> {
    let bytes = text.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(CryptoError::InvalidBase64 { position: bytes.len() - 1 });
    }
    let mut out = Vec::with_capacity(decoded_len(bytes.len()));
    let mut acc = 0u32;
    let mut acc_bits = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        let value = decode_char(b).ok_or(CryptoError::InvalidBase64 { position: i })?;
        acc = (acc << 6) | value as u32;
        acc_bits += 6;
        if acc_bits >= 8 {
            acc_bits -= 8;
            out.push((acc >> acc_bits) as u8);
        }
    }
    // Any leftover bits must be zero padding produced by the encoder.
    if acc_bits > 0 && acc & ((1 << acc_bits) - 1) != 0 {
        return Err(CryptoError::InvalidBase64 { position: bytes.len() - 1 });
    }
    Ok(out)
}

/// Length of the encoding of `n` input bytes.
pub const fn encoded_len(n: usize) -> usize {
    (n * 4).div_ceil(3)
}

/// Maximum number of bytes decoded from `n` Base64 characters.
pub const fn decoded_len(n: usize) -> usize {
    n * 3 / 4
}

#[inline(always)]
fn decode_char(c: u8) -> Option<u8> {
    match DECODE_TABLE[c as usize] {
        INVALID => None,
        value => Some(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 vectors (translated to the unpadded URL-safe form).
    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg");
        assert_eq!(encode(b"fo"), "Zm8");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg");
        assert_eq!(encode(b"fooba"), "Zm9vYmE");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn encode_into_appends() {
        let mut out = String::from("/");
        encode_into(b"foob", &mut out);
        encode_into(b"", &mut out);
        encode_into(b"ar", &mut out);
        assert_eq!(out, "/Zm9vYgYXI");
    }

    #[test]
    fn decode_inverts_encode() {
        for len in 0..80usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let encoded = encode(&data);
            assert_eq!(decode(&encoded).unwrap(), data, "length {len}");
        }
    }

    #[test]
    fn output_never_contains_slash_or_plus() {
        let data: Vec<u8> = (0..=255u16).map(|i| i as u8).collect();
        let encoded = encode(&data);
        assert!(!encoded.contains('/'));
        assert!(!encoded.contains('+'));
        assert!(!encoded.contains('='));
    }

    #[test]
    fn decode_rejects_invalid_characters() {
        let err = decode("ab/c").unwrap_err();
        assert_eq!(err, CryptoError::InvalidBase64 { position: 2 });
        assert!(decode("ab c").is_err());
        assert!(decode("abc=").is_err());
    }

    #[test]
    fn decode_rejects_impossible_length() {
        assert!(decode("abcde").is_err());
    }

    #[test]
    fn decode_rejects_nonzero_trailing_bits() {
        // "Zh" decodes 'f' but with non-zero leftover bits (valid canonical
        // form is "Zg").
        assert!(decode("Zh").is_err());
        assert_eq!(decode("Zg").unwrap(), b"f");
    }

    #[test]
    fn length_helpers_match_reality() {
        for len in 0..50usize {
            let data = vec![0u8; len];
            let encoded = encode(&data);
            assert_eq!(encoded.len(), encoded_len(len));
            assert_eq!(decoded_len(encoded.len()), len);
        }
    }

    #[test]
    fn expansion_is_roughly_one_third() {
        let encoded = encode(&[0u8; 3000]);
        let ratio = encoded.len() as f64 / 3000.0;
        assert!((1.30..1.37).contains(&ratio), "ratio {ratio}");
    }
}
