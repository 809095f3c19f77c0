//! Shared cache for deterministic path encryption (paper Section 4.3).
//!
//! SecureKeeper's path encryption is *deterministic by design*: the IV of
//! every chunk is derived from the SHA-256 hash of the plaintext prefix, so
//! that equal paths always encrypt to equal ciphertexts and ZooKeeper lookups
//! keep working. Determinism is exactly what makes a cache sound — for a
//! fixed storage key, `plaintext path → encrypted path` is a pure bijection,
//! so both directions (and individual chunk decryptions, which the LS path
//! uses) can be memoized without any correctness risk. ZooKeeper workloads
//! re-touch a small working set of paths constantly (config nodes, lock
//! parents, membership directories), so a warm cache removes *all* AES and
//! SHA-256 work from the path-handling part of a request.
//!
//! The cache is bounded and is shared: one instance per replica serves
//! every entry enclave of that replica, so a path warmed by one client
//! session is warm for all of them — mirroring how the enclaves already
//! share one storage key.
//!
//! A miss costs about as much as the crypto it saves, so eviction must be
//! cheap: each direction keeps two generations of boxed-string maps and no
//! per-entry queue. New entries go into the young generation; once it has
//! taken half the capacity in new entries, the old generation is dropped
//! wholesale and the young one takes its place. A hit in the old generation
//! moves the entry to the young one, so paths in use survive the next
//! turnover while cold ones age out. Moved entries do not count toward the
//! young generation's quota (else a hot working set would turn the cache
//! over early and keep it half empty); if they fill the cache, a batch of
//! old entries makes room.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Default number of paths (and chunks) retained per cache.
pub const DEFAULT_PATH_CACHE_CAPACITY: usize = 4096;

/// A bounded string→string map evicting by generation.
#[derive(Debug, Default)]
struct BoundedMap {
    young: HashMap<Box<str>, Box<str>>,
    old: HashMap<Box<str>, Box<str>>,
    /// New entries the young generation has taken since the last turnover.
    fresh: usize,
}

impl BoundedMap {
    fn get(&mut self, key: &str) -> Option<String> {
        if let Some(value) = self.young.get(key) {
            return Some(value.to_string());
        }
        let (key, value) = self.old.remove_entry(key)?;
        let found = value.to_string();
        self.young.insert(key, value);
        Some(found)
    }

    fn insert(&mut self, key: &str, value: &str, capacity: usize) {
        if self.young.contains_key(key) || self.old.contains_key(key) {
            return;
        }
        if self.fresh >= (capacity / 2).max(1) {
            // Drop the old generation, keeping its allocation for the new
            // young one.
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
            self.fresh = 0;
        }
        if self.len() >= capacity {
            // Moved entries filled the cache: shed an eighth of it, old
            // entries first, in the maps' arbitrary order. One pass per
            // batch keeps this amortized O(1) per insert.
            let mut excess = self.len() + 1 - capacity + capacity / 8;
            for generation in [&mut self.old, &mut self.young] {
                generation.retain(|_, _| match excess {
                    0 => true,
                    _ => {
                        excess -= 1;
                        false
                    }
                });
            }
        }
        self.young.insert(key.into(), value.into());
        self.fresh += 1;
    }

    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

/// Bidirectional, bounded, thread-safe cache of path encryptions.
///
/// Hit/miss counters cover all three directions (encrypt, decrypt, chunk
/// decrypt) and are cheap relaxed atomics, so they can be exported as service
/// metrics without touching the lock.
#[derive(Debug)]
pub struct PathCipherCache {
    /// plaintext path → encrypted path.
    encrypt: Mutex<BoundedMap>,
    /// encrypted path → plaintext path.
    decrypt: Mutex<BoundedMap>,
    /// encoded chunk → plaintext chunk (the LS / `getChildren` hot path).
    chunks: Mutex<BoundedMap>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PathCipherCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PATH_CACHE_CAPACITY)
    }
}

impl PathCipherCache {
    /// Creates a cache retaining at most `capacity` entries per direction.
    pub fn with_capacity(capacity: usize) -> Self {
        PathCipherCache {
            encrypt: Mutex::new(BoundedMap::default()),
            decrypt: Mutex::new(BoundedMap::default()),
            chunks: Mutex::new(BoundedMap::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the encrypted form of `plaintext_path`.
    pub fn get_encrypted(&self, plaintext_path: &str) -> Option<String> {
        self.count(self.encrypt.lock().get(plaintext_path))
    }

    /// Looks up the plaintext form of `encrypted_path`.
    pub fn get_decrypted(&self, encrypted_path: &str) -> Option<String> {
        self.count(self.decrypt.lock().get(encrypted_path))
    }

    /// Looks up the plaintext form of a single encoded chunk.
    pub fn get_chunk(&self, encoded_chunk: &str) -> Option<String> {
        self.count(self.chunks.lock().get(encoded_chunk))
    }

    /// Records a full-path mapping in both directions.
    ///
    /// Only call this with a mapping produced by *encrypting* — i.e. where
    /// `encrypted_path` is the canonical ciphertext of `plaintext_path`.
    /// Mappings recovered by decrypting untrusted input must go through
    /// [`PathCipherCache::insert_decrypted`] instead: a malicious store can
    /// splice individually-authenticated chunks into a path that decrypts
    /// successfully but is *not* the canonical encryption, and caching it in
    /// the encrypt direction would redirect future requests.
    pub fn insert_path(&self, plaintext_path: &str, encrypted_path: &str) {
        self.encrypt.lock().insert(plaintext_path, encrypted_path, self.capacity);
        self.decrypt.lock().insert(encrypted_path, plaintext_path, self.capacity);
    }

    /// Records a decrypt-direction mapping only (for results recovered from
    /// untrusted ciphertext). Memoizing the decrypt direction is always
    /// sound — it returns exactly what an uncached decryption would — but
    /// such mappings must never flow into the encrypt direction.
    pub fn insert_decrypted(&self, encrypted_path: &str, plaintext_path: &str) {
        self.decrypt.lock().insert(encrypted_path, plaintext_path, self.capacity);
    }

    /// Records a single chunk decryption.
    pub fn insert_chunk(&self, encoded_chunk: &str, plaintext_chunk: &str) {
        self.chunks.lock().insert(encoded_chunk, plaintext_chunk, self.capacity);
    }

    fn count(&self, result: Option<String>) -> Option<String> {
        match result {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Total lookups that were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that fell through to the cipher.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of full paths currently cached (encrypt direction).
    pub fn len(&self) -> usize {
        self.encrypt.lock().len()
    }

    /// Whether no path has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-direction capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_both_directions_and_counts() {
        let cache = PathCipherCache::with_capacity(8);
        assert_eq!(cache.get_encrypted("/a"), None);
        cache.insert_path("/a", "/ENC");
        assert_eq!(cache.get_encrypted("/a").as_deref(), Some("/ENC"));
        assert_eq!(cache.get_decrypted("/ENC").as_deref(), Some("/a"));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn chunk_cache_is_separate() {
        let cache = PathCipherCache::with_capacity(8);
        cache.insert_chunk("QUJD", "abc");
        assert_eq!(cache.get_chunk("QUJD").as_deref(), Some("abc"));
        assert_eq!(cache.get_decrypted("QUJD"), None);
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let cache = PathCipherCache::with_capacity(2);
        cache.insert_path("/a", "/EA");
        cache.insert_path("/b", "/EB");
        cache.insert_path("/c", "/EC");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_encrypted("/a"), None, "oldest entry evicted");
        assert!(cache.get_encrypted("/b").is_some());
        assert!(cache.get_encrypted("/c").is_some());
    }

    #[test]
    fn duplicate_inserts_do_not_grow_or_evict() {
        let cache = PathCipherCache::with_capacity(2);
        cache.insert_path("/a", "/EA");
        cache.insert_path("/a", "/EA");
        cache.insert_path("/a", "/EA");
        cache.insert_path("/b", "/EB");
        assert_eq!(cache.len(), 2);
        assert!(cache.get_encrypted("/a").is_some());
        assert!(cache.get_encrypted("/b").is_some());
    }

    #[test]
    fn entries_in_use_outlive_unused_ones() {
        // FIFO would evict /a first; a hit moves it to the young generation,
        // so the unused /b goes at the next turnover instead.
        let cache = PathCipherCache::with_capacity(4);
        for path in ["/a", "/b", "/c"] {
            cache.insert_path(path, &format!("/E{path}"));
        }
        assert!(cache.get_encrypted("/a").is_some());
        cache.insert_path("/d", "/ED");
        cache.insert_path("/e", "/EE");
        assert_eq!(cache.get_encrypted("/a").as_deref(), Some("/E/a"));
        assert_eq!(cache.get_encrypted("/b"), None);
        assert_eq!(cache.get_decrypted("/E/b"), None, "both directions evict alike");
    }

    #[test]
    fn hits_do_not_turn_the_cache_over_early() {
        // A working set moved young by hits must not count as new entries:
        // the cache fills to its capacity instead of halving.
        let cache = PathCipherCache::with_capacity(8);
        let paths: Vec<String> = (0..9).map(|i| format!("/k{i}")).collect();
        for path in &paths[..5] {
            cache.insert_path(path, path);
        }
        for path in &paths[..4] {
            assert!(cache.get_encrypted(path).is_some());
        }
        for path in &paths[5..8] {
            cache.insert_path(path, path);
        }
        assert_eq!(cache.len(), 8);
        assert!(paths[..8].iter().all(|path| cache.get_encrypted(path).is_some()));
        // Full: the next new entry sheds a batch of the old generation.
        cache.insert_path(&paths[8], &paths[8]);
        assert!(cache.len() < 8);
        assert!(cache.get_encrypted(&paths[8]).is_some());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        for capacity in 1..8 {
            let cache = PathCipherCache::with_capacity(capacity);
            for i in 0..40 {
                cache.insert_path(&format!("/{i}"), &format!("/E{i}"));
                cache.get_encrypted(&format!("/{}", i / 2));
                assert!(cache.len() <= capacity, "capacity {capacity}: {}", cache.len());
            }
            assert!(cache.get_encrypted("/39").is_some(), "newest entry kept");
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PathCipherCache::with_capacity(0);
        cache.insert_path("/a", "/EA");
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.len(), 1);
    }
}
