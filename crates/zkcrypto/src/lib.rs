//! Cryptographic primitives for the SecureKeeper reproduction.
//!
//! The original SecureKeeper enclaves use the Intel SGX SDK crypto library
//! (AES-GCM-128), SHA-256 based initialization vectors and HMACs, and a
//! URL-safe Base64 encoding so that ciphertext remains a valid znode path.
//! This crate provides the same primitives in safe Rust, so that the rest of
//! the workspace has no external cryptographic dependencies.
//!
//! AES-GCM, the cipher on every request, dispatches at construction: on a CPU
//! with AES-NI and PCLMULQDQ, [`gcm::AesGcm128::new`] runs the hardware
//! kernels of the vendored `gcmhw` crate, which holds every line of their
//! `unsafe`; elsewhere it runs the portable table-driven AES and GHASH of
//! this crate. [`gcm::backend_name`] says which. The portable hot paths (AES,
//! GHASH, Base64 decode) are table-driven — see `README.md` for the
//! architecture decisions — and the original naive implementations are
//! retained as reference oracles that the property tests check both backends
//! against.
//!
//! # Example
//!
//! ```
//! use zkcrypto::{gcm::AesGcm128, keys::Key128};
//!
//! let key = Key128::from_bytes([0x42; 16]);
//! let cipher = AesGcm128::new(&key);
//! let nonce = [7u8; 12];
//! let sealed = cipher.seal(&nonce, b"secret payload", b"associated data");
//! let opened = cipher.open(&nonce, &sealed, b"associated data").unwrap();
//! assert_eq!(opened, b"secret payload");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod base64url;
pub mod error;
pub mod gcm;
pub mod hmac;
pub mod keys;
pub mod sha256;

pub use error::CryptoError;
pub use gcm::AesGcm128;
pub use keys::{Key128, SessionKey, StorageKey};
pub use sha256::Sha256;

/// Length in bytes of an AES-GCM authentication tag.
pub const TAG_LEN: usize = 16;
/// Length in bytes of an AES-GCM nonce (initialization vector).
pub const NONCE_LEN: usize = 12;
/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;
/// Length in bytes of an AES-128 key.
pub const KEY_LEN: usize = 16;
