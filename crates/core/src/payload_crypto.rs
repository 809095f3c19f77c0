//! Znode payload encryption and payload-to-path binding (paper Sections 4.3, 4.4).
//!
//! Payloads are opaque to ZooKeeper, so they can simply be encrypted. Because
//! the database lives in untrusted memory, however, an attacker could swap the
//! (encrypted) payloads of two znodes — e.g. replace `/admin-credentials`'
//! payload with the attacker's own password ciphertext. SecureKeeper prevents
//! this by appending a hash of the znode path to the payload before
//! encryption; the entry enclave verifies the binding when it decrypts a GET
//! response.
//!
//! Sequential znodes need special treatment: their final path contains the
//! sequence number appended *after* the entry enclave encrypted the payload,
//! so the stored hash covers the path *without* the number. A flag stored with
//! the payload records this so verification can strip the suffix. This is
//! exactly the limited naming-attack surface the paper discusses in
//! Section 7.1.

use rand::RngCore;
use zkcrypto::gcm::AesGcm128;
use zkcrypto::keys::StorageKey;
use zkcrypto::sha256::Sha256;
use zkcrypto::{DIGEST_LEN, NONCE_LEN, TAG_LEN};

use crate::error::SkError;

/// Marker stored with the payload: was the znode created with the sequential flag?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequentialFlag {
    /// Regular znode: the binding hash covers the full path.
    Regular,
    /// Sequential znode: the binding hash covers the path without the
    /// trailing sequence number.
    Sequential,
}

impl SequentialFlag {
    fn to_byte(self) -> u8 {
        match self {
            SequentialFlag::Regular => 0,
            SequentialFlag::Sequential => 1,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, SkError> {
        match byte {
            0 => Ok(SequentialFlag::Regular),
            1 => Ok(SequentialFlag::Sequential),
            other => Err(SkError::Malformed { reason: format!("unknown sequential flag {other}") }),
        }
    }
}

/// Number of digits ZooKeeper appends to sequential znode names.
pub const SEQUENCE_SUFFIX_LEN: usize = 10;

/// Removes the 10-digit sequence suffix from a sequential znode path.
///
/// Returns the input unchanged if it does not end in ten digits. The test
/// runs on bytes, so a path whose last ten bytes cut through a multi-byte
/// character is returned unchanged rather than sliced mid-character; when
/// all ten are ASCII digits, the cut is a character boundary.
pub fn strip_sequence_suffix(path: &str) -> &str {
    match path.len().checked_sub(SEQUENCE_SUFFIX_LEN) {
        Some(cut) if path.as_bytes()[cut..].iter().all(u8::is_ascii_digit) => &path[..cut],
        _ => path,
    }
}

/// Encrypts and decrypts znode payloads with the cluster storage key.
#[derive(Debug, Clone)]
pub struct PayloadCipher {
    cipher: AesGcm128,
}

impl PayloadCipher {
    /// Creates a cipher bound to the cluster-wide storage key.
    pub fn new(storage_key: &StorageKey) -> Self {
        PayloadCipher { cipher: AesGcm128::new(storage_key.key()) }
    }

    /// Encrypts `payload`, binding it to `plaintext_path`.
    ///
    /// The stored layout is `IV || AES-GCM(payload || H(path) || flag)`.
    /// The whole output is assembled in one buffer and encrypted in place —
    /// no intermediate plaintext or ciphertext copies.
    pub fn seal(&self, plaintext_path: &str, payload: &[u8], flag: SequentialFlag) -> Vec<u8> {
        let bound_path = match flag {
            SequentialFlag::Regular => plaintext_path,
            SequentialFlag::Sequential => strip_sequence_suffix(plaintext_path),
        };
        let mut iv = [0u8; NONCE_LEN];
        rand::thread_rng().fill_bytes(&mut iv);

        let mut out = Vec::with_capacity(Self::overhead() + payload.len());
        out.extend_from_slice(&iv);
        out.extend_from_slice(payload);
        out.extend_from_slice(&Sha256::digest(bound_path.as_bytes()));
        out.push(flag.to_byte());
        self.cipher.seal_in_place_suffix(&iv, &mut out, NONCE_LEN, b"securekeeper-payload");
        out
    }

    /// Decrypts a stored payload and verifies that it belongs to
    /// `plaintext_path`. The decryption buffer itself is returned (truncated
    /// to the payload), so the only allocation is the plaintext buffer that
    /// the caller receives.
    ///
    /// # Errors
    ///
    /// Returns [`SkError::IntegrityViolation`] when decryption fails or the
    /// embedded path hash does not match (payload-swapping attack).
    pub fn open(&self, plaintext_path: &str, stored: &[u8]) -> Result<Vec<u8>, SkError> {
        self.open_vec(plaintext_path, stored.to_vec())
    }

    /// Like [`PayloadCipher::open`], but consumes an owned buffer and
    /// decrypts it fully in place — zero allocations. This is what the entry
    /// enclave uses on the GET response path, where it owns the stored bytes.
    ///
    /// # Errors
    ///
    /// As for [`PayloadCipher::open`].
    pub fn open_vec(&self, plaintext_path: &str, mut stored: Vec<u8>) -> Result<Vec<u8>, SkError> {
        if stored.len() < Self::overhead() {
            return Err(SkError::IntegrityViolation {
                what: format!("stored payload too short: {} bytes", stored.len()),
            });
        }
        let iv: [u8; NONCE_LEN] = stored[..NONCE_LEN].try_into().expect("checked length");
        self.cipher.open_in_place_suffix(&iv, &mut stored, NONCE_LEN, b"securekeeper-payload")?;
        if stored.len() < NONCE_LEN + DIGEST_LEN + 1 {
            return Err(SkError::IntegrityViolation {
                what: "decrypted payload too short".to_string(),
            });
        }
        let (rest, flag_byte) = stored.split_at(stored.len() - 1);
        let (payload_with_iv, stored_hash) = rest.split_at(rest.len() - DIGEST_LEN);
        let flag = SequentialFlag::from_byte(flag_byte[0])?;
        let bound_path = match flag {
            SequentialFlag::Regular => plaintext_path,
            SequentialFlag::Sequential => strip_sequence_suffix(plaintext_path),
        };
        let expected = Sha256::digest(bound_path.as_bytes());
        if !zkcrypto::hmac::constant_time_eq(stored_hash, &expected) {
            return Err(SkError::IntegrityViolation {
                what: format!("payload is not bound to path {plaintext_path}"),
            });
        }
        let payload_len = payload_with_iv.len() - NONCE_LEN;
        // Slide the payload over the IV prefix and truncate: no reallocation.
        stored.copy_within(NONCE_LEN..NONCE_LEN + payload_len, 0);
        stored.truncate(payload_len);
        Ok(stored)
    }

    /// Constant per-payload overhead in bytes (IV, tag, path hash, flag).
    pub const fn overhead() -> usize {
        NONCE_LEN + TAG_LEN + DIGEST_LEN + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> PayloadCipher {
        PayloadCipher::new(&StorageKey::derive_from_label("test-cluster"))
    }

    #[test]
    fn roundtrip_various_sizes() {
        let cipher = cipher();
        for len in [0usize, 1, 100, 1024, 4096] {
            let payload = vec![0xa5u8; len];
            let sealed = cipher.seal("/app/data", &payload, SequentialFlag::Regular);
            assert_eq!(sealed.len(), len + PayloadCipher::overhead());
            assert_eq!(cipher.open("/app/data", &sealed).unwrap(), payload);
        }
    }

    #[test]
    fn payload_is_hidden() {
        let cipher = cipher();
        let sealed = cipher.seal("/creds", b"hunter2-super-secret", SequentialFlag::Regular);
        let haystack = String::from_utf8_lossy(&sealed);
        assert!(!haystack.contains("hunter2"));
    }

    #[test]
    fn payload_swapping_between_paths_is_detected() {
        // The paper's motivating attack: move /admin-credentials' payload to a
        // node the attacker can read, or vice versa.
        let cipher = cipher();
        let admin = cipher.seal("/admin-credentials", b"root-password", SequentialFlag::Regular);
        assert!(cipher.open("/user-credentials", &admin).is_err());
        assert!(cipher.open("/admin-credentials", &admin).is_ok());
    }

    #[test]
    fn sequential_flag_binds_to_prefix_without_number() {
        let cipher = cipher();
        // The entry enclave seals before the sequence number exists.
        let sealed = cipher.seal("/locks/lock-", b"owner=client-7", SequentialFlag::Sequential);
        // The client later reads the node under its final, numbered path.
        assert_eq!(cipher.open("/locks/lock-0000000042", &sealed).unwrap(), b"owner=client-7");
        // But the binding still prevents moving it under a different prefix.
        assert!(cipher.open("/other/lock-0000000042", &sealed).is_err());
    }

    #[test]
    fn regular_flag_does_not_strip_digits() {
        let cipher = cipher();
        let sealed = cipher.seal("/node-0000000001", b"x", SequentialFlag::Regular);
        assert!(cipher.open("/node-0000000001", &sealed).is_ok());
        assert!(cipher.open("/node-0000000002", &sealed).is_err());
    }

    #[test]
    fn tampering_is_detected() {
        let cipher = cipher();
        let mut sealed = cipher.seal("/a", b"payload", SequentialFlag::Regular);
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        assert!(cipher.open("/a", &sealed).is_err());
    }

    #[test]
    fn truncated_or_garbage_input_is_rejected() {
        let cipher = cipher();
        assert!(cipher.open("/a", &[1, 2, 3]).is_err());
        assert!(cipher.open("/a", &vec![0u8; PayloadCipher::overhead()]).is_err());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let cipher = cipher();
        let other = PayloadCipher::new(&StorageKey::derive_from_label("other"));
        let sealed = cipher.seal("/a", b"data", SequentialFlag::Regular);
        assert!(other.open("/a", &sealed).is_err());
    }

    #[test]
    fn strip_sequence_suffix_behaviour() {
        assert_eq!(strip_sequence_suffix("/locks/lock-0000000042"), "/locks/lock-");
        assert_eq!(strip_sequence_suffix("/locks/lock-"), "/locks/lock-");
        assert_eq!(strip_sequence_suffix("/short12"), "/short12");
        assert_eq!(strip_sequence_suffix("0123456789"), "");
    }

    #[test]
    fn strip_sequence_suffix_never_cuts_a_multibyte_character() {
        // Ten bytes from the end of "/ééééabc" is the middle of an 'é'.
        assert_eq!(strip_sequence_suffix("/ééééabc"), "/ééééabc");
        assert_eq!(strip_sequence_suffix("/é0000000042"), "/é");
        assert_eq!(strip_sequence_suffix("é00000004"), "é00000004");
        for path in ["ééééé", "/日本語の名前", "€€€€", "/a€0000000001"] {
            let stripped = strip_sequence_suffix(path);
            assert!(path.starts_with(stripped), "{path}");
        }
        let cipher = cipher();
        let sealed = cipher.seal("/ééééabc", b"v", SequentialFlag::Sequential);
        assert_eq!(cipher.open("/ééééabc", &sealed).unwrap(), b"v");
    }

    #[test]
    fn encryption_is_randomized() {
        // Unlike paths, payload encryption uses a random IV: two writes of the
        // same value to the same node produce different ciphertexts.
        let cipher = cipher();
        let a = cipher.seal("/a", b"same", SequentialFlag::Regular);
        let b = cipher.seal("/a", b"same", SequentialFlag::Regular);
        assert_ne!(a, b);
    }
}
