//! Znode path encryption (paper Section 4.3).
//!
//! Path names are sensitive — "in many cases, the pure existence of a certain
//! path steers processing in a distributed application" — but ZooKeeper must
//! still be able to operate on them: an encrypted path has to be a valid path
//! (no `/` or illegal characters inside a component) and the znode hierarchy
//! must survive encryption so that `getChildren` keeps working.
//!
//! SecureKeeper therefore encrypts each path component ("chunk") separately:
//!
//! * the IV of a chunk is derived from the SHA-256 hash of the *plaintext*
//!   path prefix up to and including that chunk, which makes encryption
//!   deterministic (equal paths encrypt equally, so lookups work) while never
//!   reusing an IV for different plaintexts;
//! * the IV and the authentication tag are appended to the ciphertext so that
//!   a chunk can be decrypted in isolation — required for the LS operation,
//!   where the enclave only sees child names, not their plaintext prefix;
//! * the result is Base64-url encoded so it never contains `/`.
//!
//! Two hot-path optimizations (this determinism is what makes both sound):
//!
//! * prefix IVs are computed **incrementally**: one running SHA-256 absorbs
//!   the path left to right and is forked (cloned) per chunk, so a depth-*d*
//!   path hashes each byte once instead of re-digesting growing prefixes
//!   (O(n) instead of O(n·d) hashing);
//! * an optional shared [`PathCipherCache`] memoizes whole-path encryptions
//!   and decryptions plus chunk decryptions. A warm hit is a single map
//!   lookup — no AES, SHA-256 or Base64 work at all.

use std::sync::Arc;

use zkcrypto::base64url;
use zkcrypto::gcm::AesGcm128;
use zkcrypto::keys::StorageKey;
use zkcrypto::sha256::Sha256;
use zkcrypto::{NONCE_LEN, TAG_LEN};

use crate::error::SkError;
use crate::path_cache::PathCipherCache;

/// Encrypts and decrypts znode paths with the cluster storage key.
#[derive(Debug, Clone)]
pub struct PathCipher {
    cipher: AesGcm128,
    cache: Option<Arc<PathCipherCache>>,
}

impl PathCipher {
    /// Creates a cipher bound to the cluster-wide storage key.
    pub fn new(storage_key: &StorageKey) -> Self {
        PathCipher { cipher: AesGcm128::new(storage_key.key()), cache: None }
    }

    /// Creates a cipher that consults (and fills) `cache`. The cache may be
    /// shared by any number of `PathCipher`s keyed with the **same** storage
    /// key — path encryption is deterministic, so their results coincide.
    pub fn with_cache(storage_key: &StorageKey, cache: Arc<PathCipherCache>) -> Self {
        PathCipher { cipher: AesGcm128::new(storage_key.key()), cache: Some(cache) }
    }

    /// The attached cache, if any (for metrics).
    pub fn cache(&self) -> Option<&Arc<PathCipherCache>> {
        self.cache.as_ref()
    }

    /// Encrypts a single path chunk given the 12-byte IV derived from its
    /// plaintext prefix, appending its encoding to `out`. `scratch` is a
    /// reusable buffer for `IV || ciphertext || tag`.
    fn encrypt_chunk_into(
        &self,
        iv: [u8; NONCE_LEN],
        chunk: &str,
        scratch: &mut Vec<u8>,
        out: &mut String,
    ) {
        scratch.clear();
        scratch.extend_from_slice(&iv);
        scratch.extend_from_slice(chunk.as_bytes());
        self.cipher.seal_in_place_suffix(&iv, scratch, NONCE_LEN, b"securekeeper-path");
        base64url::encode_into(scratch, out);
    }

    /// Decrypts a single encoded chunk (IV is embedded, so no prefix needed).
    ///
    /// # Errors
    ///
    /// Returns [`SkError::IntegrityViolation`] when the chunk is not valid
    /// Base64, is too short, or fails authentication.
    pub fn decrypt_chunk(&self, encoded: &str) -> Result<String, SkError> {
        if let Some(cache) = &self.cache {
            if let Some(plaintext) = cache.get_chunk(encoded) {
                return Ok(plaintext);
            }
        }
        let plaintext = self.decrypt_chunk_uncached(encoded)?;
        if let Some(cache) = &self.cache {
            cache.insert_chunk(encoded, &plaintext);
        }
        Ok(plaintext)
    }

    fn decrypt_chunk_uncached(&self, encoded: &str) -> Result<String, SkError> {
        let mut combined = base64url::decode(encoded)?;
        if combined.len() < NONCE_LEN + TAG_LEN {
            return Err(SkError::IntegrityViolation {
                what: format!("path chunk too short: {} bytes", combined.len()),
            });
        }
        let iv: [u8; NONCE_LEN] = combined[..NONCE_LEN].try_into().expect("checked length");
        self.cipher.open_in_place_suffix(&iv, &mut combined, NONCE_LEN, b"securekeeper-path")?;
        combined.drain(..NONCE_LEN);
        String::from_utf8(combined).map_err(|_| SkError::IntegrityViolation {
            what: "path chunk is not utf-8".to_string(),
        })
    }

    /// Encrypts a full path, component by component.
    ///
    /// The root path `/` is not sensitive (it exists in every installation)
    /// and is returned unchanged. With a warm cache this is a single lookup
    /// that performs no cryptography.
    ///
    /// # Errors
    ///
    /// Returns [`SkError::Malformed`] for paths that are not absolute.
    pub fn encrypt_path(&self, plaintext_path: &str) -> Result<String, SkError> {
        if plaintext_path == "/" {
            return Ok("/".to_string());
        }
        if !plaintext_path.starts_with('/') {
            return Err(SkError::Malformed {
                reason: format!("path must be absolute: {plaintext_path}"),
            });
        }
        if let Some(cache) = &self.cache {
            if let Some(encrypted) = cache.get_encrypted(plaintext_path) {
                return Ok(encrypted);
            }
        }

        // One running hasher absorbs the path once; each chunk's IV is the
        // digest of the clone-forked prefix state. Every chunk is encoded
        // straight into the one, exactly sized, output string.
        let chunks = || plaintext_path[1..].split('/');
        let mut encrypted = String::with_capacity(
            chunks().map(|chunk| 1 + Self::encrypted_chunk_len(chunk.len())).sum(),
        );
        let mut scratch = Vec::with_capacity(NONCE_LEN + plaintext_path.len() + TAG_LEN);
        let mut prefix_hash = Sha256::new();
        for chunk in chunks() {
            prefix_hash.update(b"/");
            prefix_hash.update(chunk.as_bytes());
            let digest = prefix_hash.clone().finalize();
            let mut iv = [0u8; NONCE_LEN];
            iv.copy_from_slice(&digest[..NONCE_LEN]);
            encrypted.push('/');
            self.encrypt_chunk_into(iv, chunk, &mut scratch, &mut encrypted);
        }

        if let Some(cache) = &self.cache {
            cache.insert_path(plaintext_path, &encrypted);
        }
        Ok(encrypted)
    }

    /// Decrypts a full encrypted path.
    ///
    /// # Errors
    ///
    /// Returns [`SkError::IntegrityViolation`] when any component fails to
    /// decrypt, and [`SkError::Malformed`] for non-absolute input.
    pub fn decrypt_path(&self, encrypted_path: &str) -> Result<String, SkError> {
        if encrypted_path == "/" {
            return Ok("/".to_string());
        }
        if !encrypted_path.starts_with('/') {
            return Err(SkError::Malformed {
                reason: format!("path must be absolute: {encrypted_path}"),
            });
        }
        if let Some(cache) = &self.cache {
            if let Some(plaintext) = cache.get_decrypted(encrypted_path) {
                return Ok(plaintext);
            }
        }

        let mut plaintext = String::new();
        for chunk in encrypted_path[1..].split('/') {
            plaintext.push('/');
            plaintext.push_str(&self.decrypt_chunk(chunk)?);
        }

        // Decrypt-direction only: `encrypted_path` came from the untrusted
        // store. Each chunk authenticated individually, but chunks can be
        // spliced across parents (the chunk IV is self-contained), so this
        // ciphertext is not necessarily the canonical encryption of
        // `plaintext` and must never seed the encrypt direction.
        if let Some(cache) = &self.cache {
            cache.insert_decrypted(encrypted_path, &plaintext);
        }
        Ok(plaintext)
    }

    /// Size in characters of the encrypted encoding of a `chunk_len`-byte
    /// component (IV + ciphertext + tag, Base64-url encoded). Used for the
    /// Table 2 message-size analysis.
    pub fn encrypted_chunk_len(chunk_len: usize) -> usize {
        base64url::encoded_len(NONCE_LEN + chunk_len + TAG_LEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> PathCipher {
        PathCipher::new(&StorageKey::derive_from_label("test-cluster"))
    }

    #[test]
    fn roundtrip_simple_and_nested_paths() {
        let cipher = cipher();
        for path in ["/a", "/app/config/database", "/x/y/z/deep/nesting/here", "/"] {
            let encrypted = cipher.encrypt_path(path).unwrap();
            assert_eq!(cipher.decrypt_path(&encrypted).unwrap(), path, "{path}");
        }
    }

    #[test]
    fn encryption_is_deterministic_for_lookups() {
        let cipher = cipher();
        assert_eq!(
            cipher.encrypt_path("/app/config").unwrap(),
            cipher.encrypt_path("/app/config").unwrap()
        );
    }

    #[test]
    fn ciphertext_hides_plaintext_and_is_path_safe() {
        let cipher = cipher();
        let encrypted = cipher.encrypt_path("/admin-credentials/password").unwrap();
        assert!(!encrypted.contains("admin"));
        assert!(!encrypted.contains("password"));
        // Each component is a valid znode name: no '/', no '='.
        for chunk in encrypted[1..].split('/') {
            assert!(!chunk.is_empty());
            assert!(chunk.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        }
        // Hierarchy is preserved: same number of components.
        assert_eq!(encrypted.matches('/').count(), 2);
    }

    #[test]
    fn shared_prefix_encrypts_identically() {
        // Children of the same parent must agree on the parent's ciphertext,
        // otherwise the tree hierarchy would fall apart.
        let cipher = cipher();
        let a = cipher.encrypt_path("/app/one").unwrap();
        let b = cipher.encrypt_path("/app/two").unwrap();
        let parent_a = a[1..].split('/').next().unwrap();
        let parent_b = b[1..].split('/').next().unwrap();
        assert_eq!(parent_a, parent_b);
        // But the differing components differ.
        assert_ne!(a[1..].split('/').nth(1), b[1..].split('/').nth(1));
    }

    #[test]
    fn same_name_under_different_parents_encrypts_differently() {
        // The IV covers the whole prefix, so "config" under /app and under
        // /other yields different ciphertexts — no cross-tree correlation.
        let cipher = cipher();
        let a = cipher.encrypt_path("/app/config").unwrap();
        let b = cipher.encrypt_path("/other/config").unwrap();
        assert_ne!(a[1..].split('/').nth(1), b[1..].split('/').nth(1));
    }

    #[test]
    fn chunks_decrypt_in_isolation_for_ls() {
        let cipher = cipher();
        let encrypted = cipher.encrypt_path("/app/workers/worker-007").unwrap();
        let last_chunk = encrypted[1..].split('/').nth(2).unwrap();
        assert_eq!(cipher.decrypt_chunk(last_chunk).unwrap(), "worker-007");
    }

    #[test]
    fn tampered_chunks_are_rejected() {
        let cipher = cipher();
        let encrypted = cipher.encrypt_path("/app/secret").unwrap();
        let mut tampered: Vec<char> = encrypted.chars().collect();
        let last = tampered.len() - 1;
        tampered[last] = if tampered[last] == 'A' { 'B' } else { 'A' };
        let tampered: String = tampered.into_iter().collect();
        assert!(cipher.decrypt_path(&tampered).is_err());
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let cipher = cipher();
        let other = PathCipher::new(&StorageKey::derive_from_label("other-cluster"));
        let encrypted = cipher.encrypt_path("/app").unwrap();
        assert!(other.decrypt_path(&encrypted).is_err());
    }

    #[test]
    fn garbage_input_is_rejected_not_panicking() {
        let cipher = cipher();
        assert!(cipher.decrypt_path("/not-base64!@#").is_err());
        assert!(cipher.decrypt_path("/c2hvcnQ").is_err()); // valid base64, too short
        assert!(cipher.decrypt_path("relative").is_err());
        assert!(cipher.encrypt_path("relative").is_err());
    }

    #[test]
    fn encrypted_chunk_len_matches_actual_overhead() {
        let cipher = cipher();
        let encrypted = cipher.encrypt_path("/abcdefgh").unwrap();
        let chunk = &encrypted[1..];
        assert_eq!(chunk.len(), PathCipher::encrypted_chunk_len(8));
        // Roughly: (12 + n + 16) * 4/3 — about 33% expansion plus constants.
        assert!(chunk.len() > 8);
    }

    #[test]
    fn cached_and_uncached_ciphers_agree() {
        let key = StorageKey::derive_from_label("test-cluster");
        let plain = PathCipher::new(&key);
        let cached = PathCipher::with_cache(&key, Arc::new(PathCipherCache::default()));
        for path in ["/a", "/app/config/database", "/x/y/z"] {
            let expected = plain.encrypt_path(path).unwrap();
            // Cold, then warm.
            assert_eq!(cached.encrypt_path(path).unwrap(), expected);
            assert_eq!(cached.encrypt_path(path).unwrap(), expected);
            assert_eq!(cached.decrypt_path(&expected).unwrap(), path);
        }
    }

    #[test]
    fn warm_cache_hits_bypass_the_cipher_entirely() {
        // A cipher keyed with the WRONG key but sharing a pre-warmed cache
        // still answers correctly — proof that a hit performs no AES at all.
        let cache = Arc::new(PathCipherCache::default());
        let right =
            PathCipher::with_cache(&StorageKey::derive_from_label("right"), Arc::clone(&cache));
        let encrypted = right.encrypt_path("/warm/path").unwrap();
        let decoy =
            PathCipher::with_cache(&StorageKey::derive_from_label("wrong"), Arc::clone(&cache));
        assert_eq!(decoy.encrypt_path("/warm/path").unwrap(), encrypted);
        assert_eq!(decoy.decrypt_path(&encrypted).unwrap(), "/warm/path");
        assert!(cache.hits() >= 2);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = Arc::new(PathCipherCache::default());
        let cipher =
            PathCipher::with_cache(&StorageKey::derive_from_label("k"), Arc::clone(&cache));
        cipher.encrypt_path("/a/b").unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        cipher.encrypt_path("/a/b").unwrap();
        assert_eq!(cache.hits(), 1);
        // decrypt_path of the cached encryption also hits.
        let encrypted = cipher.encrypt_path("/a/b").unwrap();
        cipher.decrypt_path(&encrypted).unwrap();
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn decrypting_untrusted_paths_cannot_poison_the_encrypt_direction() {
        // Chunks authenticate individually (their IV is self-contained), so
        // a malicious store can splice a chunk from one path into another
        // position and the spliced path still *decrypts*. That decryption
        // must never seed the encrypt direction of the shared cache:
        // encrypt_path has to keep producing the canonical ciphertext.
        let key = StorageKey::derive_from_label("k");
        let cache = Arc::new(PathCipherCache::default());
        let cipher = PathCipher::with_cache(&key, Arc::clone(&cache));
        let reference = PathCipher::new(&key);

        let encrypted = cipher.encrypt_path("/a/config").unwrap();
        let config_chunk = encrypted[1..].split('/').nth(1).unwrap();
        // Attacker presents the child chunk as a root-level path.
        let spliced = format!("/{config_chunk}");
        assert_eq!(cipher.decrypt_path(&spliced).unwrap(), "/config");

        // The non-canonical mapping must not have been cached for encryption…
        let canonical = reference.encrypt_path("/config").unwrap();
        assert_ne!(canonical, spliced, "spliced ciphertext is not canonical");
        assert_eq!(cipher.encrypt_path("/config").unwrap(), canonical);
        // …while the decrypt direction may (soundly) remember the answer.
        assert_eq!(cipher.decrypt_path(&spliced).unwrap(), "/config");
    }

    #[test]
    fn ls_chunks_are_cached_individually() {
        let cache = Arc::new(PathCipherCache::default());
        let cipher =
            PathCipher::with_cache(&StorageKey::derive_from_label("k"), Arc::clone(&cache));
        let encrypted = cipher.encrypt_path("/parent/child").unwrap();
        let chunk = encrypted[1..].split('/').nth(1).unwrap();
        cipher.decrypt_chunk(chunk).unwrap();
        let misses_after_first = cache.misses();
        cipher.decrypt_chunk(chunk).unwrap();
        assert_eq!(cache.misses(), misses_after_first, "second chunk decrypt is a hit");
    }
}
