//! AES-128 in Galois/Counter Mode (NIST SP 800-38D).
//!
//! This is the authenticated cipher SecureKeeper uses for both *transport*
//! encryption (client ↔ entry enclave) and *storage* encryption (entry
//! enclave ↔ ZooKeeper data store). The 16-byte authentication tag is what the
//! paper refers to as the "HMAC" appended to each ciphertext.
//!
//! Because every single ZooKeeper request passes through this cipher at least
//! twice (transport + storage), [`AesGcm128::new`] picks the fastest backend
//! the CPU offers, once per key:
//!
//! * **`aesni-clmul`** — the AES-NI + PCLMULQDQ kernels of the vendored
//!   `gcmhw` crate (8-block interleaved CTR, 4-block aggregated GHASH), used
//!   whenever the CPU has `aes`, `pclmulqdq` and `ssse3`. All of its `unsafe`
//!   stays in that crate; this one remains `forbid(unsafe_code)`.
//! * **`portable`** — the table-driven software path below, used on any
//!   other CPU and by [`AesGcm128::portable`]:
//!   * GHASH uses Shoup's 4-bit table method: the key-dependent 16-entry table
//!     `nibble[n] = (n·x⁰..x³)·H` is precomputed once per key
//!     ([`GhashTable`]), expanded into byte-indexed tables for `H..H⁴`, after
//!     which bulk data is absorbed four blocks at a time with aggregated
//!     reduction — instead of a 128-iteration bit-serial loop per block. The
//!     bit-serial [`gf128_mul`] is retained as the reference oracle (and is
//!     what builds the tables, so the two can never drift apart silently);
//!   * CTR keystream generation works on a four-block batch buffer with
//!     interleaved in-place block encryption ([`Aes128::encrypt_blocks4`]) —
//!     no per-block `encrypt_block_copy`.
//!
//! Both backends produce identical bytes; `tests/proptests.rs` checks them
//! against each other and against a naive reference GCM. Nothing outside
//! [`AesGcm128::portable`] selects a backend: no feature, variable or config.
//!
//! [`AesGcm128::seal_in_place`] / [`AesGcm128::open_in_place`] (and their
//! `_suffix` variants for layouts with a plaintext header such as
//! `IV || ciphertext`) encrypt/decrypt a caller-provided buffer with zero
//! intermediate allocations. [`AesGcm128::seal`]/[`AesGcm128::open`] are thin
//! copying wrappers kept for callers that only hold a slice.

use gcmhw::Kernel;

use crate::aes::Aes128;
use crate::error::CryptoError;
use crate::hmac::constant_time_eq;
use crate::keys::Key128;
use crate::{NONCE_LEN, TAG_LEN};

/// Name of the AES-NI + PCLMULQDQ backend.
const HW_BACKEND: &str = "aesni-clmul";
/// Name of the table-driven software backend.
const PORTABLE_BACKEND: &str = "portable";

/// The backend [`AesGcm128::new`] selects on this CPU: `"aesni-clmul"` or
/// `"portable"`.
pub fn backend_name() -> &'static str {
    if gcmhw::is_supported() {
        HW_BACKEND
    } else {
        PORTABLE_BACKEND
    }
}

/// AES-128-GCM authenticated encryption.
///
/// # Example
///
/// ```
/// use zkcrypto::{gcm::AesGcm128, keys::Key128};
///
/// let cipher = AesGcm128::new(&Key128::from_bytes([1; 16]));
/// let nonce = [0u8; 12];
/// let ct = cipher.seal(&nonce, b"payload", b"");
/// assert_eq!(cipher.open(&nonce, &ct, b"").unwrap(), b"payload");
/// assert!(cipher.open(&[1u8; 12], &ct, b"").is_err());
/// ```
#[derive(Clone)]
pub struct AesGcm128 {
    backend: Backend,
}

/// The AES and GHASH implementation behind one key, chosen in
/// [`AesGcm128::new`].
#[derive(Clone)]
enum Backend {
    /// Hardware kernel: expanded round keys and `H..H⁴`.
    Hw(Kernel),
    /// Software fallback: T-table AES and GHASH tables.
    Portable(Portable),
}

#[derive(Clone)]
struct Portable {
    /// Boxed so this variant stays about the size of the 240 B kernel: the
    /// key schedules take 528 B (the GHASH byte tables are boxed already).
    cipher: Box<Aes128>,
    /// Precomputed 4-bit GHASH multiplication table for H = E_K(0^128).
    ghash_key: GhashTable,
}

impl std::fmt::Debug for AesGcm128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material: both backends hold key-derived state.
        f.debug_struct("AesGcm128")
            .field("backend", &self.backend_name())
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl AesGcm128 {
    /// Creates a GCM instance for the given 128-bit key on the hardware
    /// backend if the CPU supports it, else on the portable one.
    pub fn new(key: &Key128) -> Self {
        match Kernel::new(key.as_bytes()) {
            Some(kernel) => AesGcm128 { backend: Backend::Hw(kernel) },
            None => AesGcm128::portable(key),
        }
    }

    /// Creates a GCM instance on the table-driven software backend whatever
    /// the CPU supports. For equivalence tests and benchmarks that must run
    /// the fallback on an AES-NI host; production code calls
    /// [`AesGcm128::new`].
    pub fn portable(key: &Key128) -> Self {
        let cipher = Box::new(Aes128::new(key.as_bytes()));
        let h_block = cipher.encrypt_block_copy(&[0u8; 16]);
        let ghash_key = GhashTable::new(u128::from_be_bytes(h_block));
        AesGcm128 { backend: Backend::Portable(Portable { cipher, ghash_key }) }
    }

    /// The backend this instance runs on.
    fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Hw(_) => HW_BACKEND,
            Backend::Portable(_) => PORTABLE_BACKEND,
        }
    }

    /// Encrypts `plaintext` with `nonce`, authenticating `aad` as well, and
    /// returns `ciphertext || tag`.
    ///
    /// Prefer [`AesGcm128::seal_in_place`] on hot paths: this convenience
    /// wrapper copies `plaintext` into a fresh buffer first.
    ///
    /// # Panics
    ///
    /// Panics if `nonce` is empty. 12-byte nonces use the fast `IV || ctr`
    /// construction; any other length is hashed to J0 as in SP 800-38D §7.1.
    pub fn seal(&self, nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(nonce, &mut out, aad);
        out
    }

    /// Encrypts `buffer` in place and appends the 16-byte tag, with zero
    /// intermediate allocations (one `reserve` on the buffer at most).
    pub fn seal_in_place(&self, nonce: &[u8], buffer: &mut Vec<u8>, aad: &[u8]) {
        self.seal_in_place_suffix(nonce, buffer, 0, aad)
    }

    /// Like [`AesGcm128::seal_in_place`], but leaves `buffer[..from]`
    /// untouched (and unauthenticated): only `buffer[from..]` is encrypted.
    /// This supports the `IV || ciphertext || tag` storage layouts used by
    /// the path/payload ciphers without assembling the plaintext twice.
    ///
    /// # Panics
    ///
    /// Panics if `from > buffer.len()` or `nonce` is empty.
    pub fn seal_in_place_suffix(
        &self,
        nonce: &[u8],
        buffer: &mut Vec<u8>,
        from: usize,
        aad: &[u8],
    ) {
        let j0 = self.initial_counter(nonce);
        buffer.reserve(TAG_LEN);
        self.ctr_transform(increment_counter(j0), &mut buffer[from..]);
        let tag = self.compute_tag(j0, aad, &buffer[from..]);
        buffer.extend_from_slice(&tag);
    }

    /// Decrypts `ciphertext || tag` produced by [`AesGcm128::seal`].
    ///
    /// Prefer [`AesGcm128::open_in_place`] on hot paths: this convenience
    /// wrapper copies the ciphertext into a fresh buffer first.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextTooShort`] if the input cannot contain
    /// a tag, and [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify (wrong key, wrong nonce, wrong AAD, or tampered data).
    pub fn open(
        &self,
        nonce: &[u8],
        ciphertext_and_tag: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut buffer = ciphertext_and_tag.to_vec();
        self.open_in_place(nonce, &mut buffer, aad)?;
        Ok(buffer)
    }

    /// Verifies the trailing tag of `buffer` (`ciphertext || tag`), decrypts
    /// the ciphertext in place and truncates the tag off, leaving the
    /// plaintext in `buffer`. No intermediate allocations.
    ///
    /// # Errors
    ///
    /// As for [`AesGcm128::open`]; on error `buffer` is left unmodified.
    pub fn open_in_place(
        &self,
        nonce: &[u8],
        buffer: &mut Vec<u8>,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        self.open_in_place_suffix(nonce, buffer, 0, aad)
    }

    /// Like [`AesGcm128::open_in_place`], but treats only `buffer[from..]` as
    /// `ciphertext || tag`, leaving the prefix untouched.
    ///
    /// # Errors
    ///
    /// As for [`AesGcm128::open`]; on error `buffer` is left unmodified.
    ///
    /// # Panics
    ///
    /// Panics if `from > buffer.len()` or `nonce` is empty.
    pub fn open_in_place_suffix(
        &self,
        nonce: &[u8],
        buffer: &mut Vec<u8>,
        from: usize,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        let region = buffer.len() - from;
        if region < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort { got: region, need: TAG_LEN });
        }
        let split = buffer.len() - TAG_LEN;
        let j0 = self.initial_counter(nonce);
        let expected_tag = self.compute_tag(j0, aad, &buffer[from..split]);
        if !constant_time_eq(&expected_tag, &buffer[split..]) {
            return Err(CryptoError::AuthenticationFailed);
        }
        buffer.truncate(split);
        self.ctr_transform(increment_counter(j0), &mut buffer[from..]);
        Ok(())
    }

    /// Number of bytes `seal` adds to a plaintext (the tag length).
    pub const fn overhead() -> usize {
        TAG_LEN
    }

    fn initial_counter(&self, nonce: &[u8]) -> [u8; 16] {
        assert!(!nonce.is_empty(), "AES-GCM nonce must not be empty");
        if nonce.len() == NONCE_LEN {
            // For 96-bit nonces J0 = IV || 0^31 || 1.
            let mut j0 = [0u8; 16];
            j0[..NONCE_LEN].copy_from_slice(nonce);
            j0[15] = 1;
            j0
        } else {
            // Otherwise J0 = GHASH(IV padded to a block || 0^64 || len(IV)).
            self.ghash(nonce, &[], (nonce.len() as u128) * 8)
        }
    }

    /// GHASH of `first` and `second`, each zero-padded to a block boundary,
    /// followed by the block `closing`.
    fn ghash(&self, first: &[u8], second: &[u8], closing: u128) -> [u8; 16] {
        match &self.backend {
            Backend::Hw(kernel) => {
                let mut y = [0u8; 16];
                kernel.ghash_update(&mut y, first);
                kernel.ghash_update(&mut y, second);
                kernel.ghash_update(&mut y, &closing.to_be_bytes());
                y
            }
            Backend::Portable(portable) => {
                let mut ghash = Ghash::new(&portable.ghash_key);
                ghash.update_padded(first);
                ghash.update_padded(second);
                ghash.update_block(closing);
                ghash.finalize()
            }
        }
    }

    /// CTR-mode keystream XOR starting at `counter`.
    fn ctr_transform(&self, counter: [u8; 16], data: &mut [u8]) {
        match &self.backend {
            Backend::Hw(kernel) => kernel.ctr_xor(&counter, data),
            Backend::Portable(portable) => portable.ctr_transform(counter, data),
        }
    }

    fn compute_tag(&self, j0: [u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        let s = self.ghash(aad, ciphertext, lengths);
        let e_j0 = match &self.backend {
            Backend::Hw(kernel) => {
                let mut block = j0;
                kernel.encrypt_block(&mut block);
                block
            }
            Backend::Portable(portable) => portable.cipher.encrypt_block_copy(&j0),
        };
        let mut tag = [0u8; 16];
        for i in 0..16 {
            tag[i] = s[i] ^ e_j0[i];
        }
        tag
    }
}

impl Portable {
    /// CTR-mode keystream XOR starting at `counter`, processing four blocks
    /// per loop iteration with in-place batch encryption.
    fn ctr_transform(&self, counter: [u8; 16], data: &mut [u8]) {
        const WIDE: usize = 4;
        let mut prefix = [0u8; 12];
        prefix.copy_from_slice(&counter[..12]);
        let mut ctr = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
        let mut keystream = [0u8; 16 * WIDE];

        let mut chunks = data.chunks_exact_mut(16 * WIDE);
        for chunk in &mut chunks {
            for lane in 0..WIDE {
                let block = &mut keystream[16 * lane..16 * (lane + 1)];
                block[..12].copy_from_slice(&prefix);
                block[12..].copy_from_slice(&ctr.to_be_bytes());
                ctr = ctr.wrapping_add(1);
            }
            self.cipher.encrypt_blocks4(&mut keystream);
            xor_slice(chunk, &keystream);
        }

        for chunk in chunks.into_remainder().chunks_mut(16) {
            let block: &mut [u8; 16] = (&mut keystream[..16]).try_into().expect("16 bytes");
            block[..12].copy_from_slice(&prefix);
            block[12..].copy_from_slice(&ctr.to_be_bytes());
            ctr = ctr.wrapping_add(1);
            self.cipher.encrypt_block(block);
            xor_slice(chunk, &block[..chunk.len()]);
        }
    }
}

/// XORs `mask` into `data` (equal lengths), eight bytes at a time.
#[inline]
fn xor_slice(data: &mut [u8], mask: &[u8]) {
    debug_assert_eq!(data.len(), mask.len());
    let mut chunks = data.chunks_exact_mut(8);
    let mut mask_chunks = mask.chunks_exact(8);
    for (d, m) in (&mut chunks).zip(&mut mask_chunks) {
        let word = u64::from_ne_bytes(d[..8].try_into().expect("8 bytes"))
            ^ u64::from_ne_bytes(m[..8].try_into().expect("8 bytes"));
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, m) in chunks.into_remainder().iter_mut().zip(mask_chunks.remainder()) {
        *d ^= m;
    }
}

/// Increments the rightmost 32 bits of a GCM counter block.
#[inline]
fn increment_counter(mut block: [u8; 16]) -> [u8; 16] {
    let mut ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
    block
}

/// `x^8` as a GF(2^128) element in GCM bit order (bit 127 ↔ degree 0).
const X8: u128 = 1 << 119;

/// Per-shift reduction residues: `R8[n] = n·x⁸` for the byte that falls off
/// when the accumulator is shifted by eight bits. Key-independent, so built
/// once at compile time from the reference multiplication.
static R8: [u128; 256] = {
    let mut table = [0u128; 256];
    let mut n = 0;
    while n < 256 {
        table[n] = gf128_mul(n as u128, X8);
        n += 1;
    }
    table
};

/// Multiplication by `x` (one reducing shift) in GCM bit order.
#[inline(always)]
const fn mul_x(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let reduce = (v & 1) == 1;
    (v >> 1) ^ if reduce { R } else { 0 }
}

/// Multiplication by `x⁴` (four reducing shifts).
#[inline(always)]
const fn mul_x4(v: u128) -> u128 {
    mul_x(mul_x(mul_x(mul_x(v))))
}

/// One 256-entry byte-indexed multiplication table for a fixed field element.
type ByteTable = [u128; 256];

/// How many blocks the aggregated GHASH update folds per step.
const GHASH_AGG: usize = 4;

/// Precomputed multiplication tables for a fixed GHASH key `H`.
///
/// The construction is Shoup's 4-bit table method: the 16-entry base table is
/// `nibble[n] = P(n << 124) · H`, the product of `H` with each 4-bit
/// polynomial placed at degrees 0..3 (built with the bit-serial reference
/// [`gf128_mul`], so table and reference cannot drift apart). The hot loop
/// uses the derived 256-entry byte table
/// `byte[hi·16 + lo] = nibble[hi] ^ nibble[lo]·x⁴`, which processes a block
/// in 16 iterations of one shift, two loads and three XORs — the nibble pair
/// of each byte is folded in a single step.
///
/// For bulk data the table additionally holds byte tables for `H²`, `H³` and
/// `H⁴` ("aggregated reduction"): four consecutive blocks are absorbed as
/// `Y' = (Y⊕C₀)·H⁴ ⊕ C₁·H³ ⊕ C₂·H² ⊕ C₃·H`, four *independent* table walks
/// the CPU can overlap, instead of four serially dependent ones.
#[derive(Clone)]
pub struct GhashTable {
    /// Shoup's 16-entry 4-bit table: `nibble[n] = P(n << 124) · H`.
    nibble: [u128; 16],
    /// `powers[i]` is the byte table for `H^(i+1)`; `powers[0]` is `H` itself.
    powers: Box<[ByteTable; GHASH_AGG]>,
}

impl std::fmt::Debug for GhashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material: every table entry is derived from the
        // secret GHASH subkey H (nibble[8] *is* H).
        f.debug_struct("GhashTable").field("tables", &"<redacted>").finish()
    }
}

/// Builds the 16-entry nibble table `nibble[n] = P(n << 124) · h` with the
/// bit-serial reference multiplication.
fn nibble_table(h: u128) -> [u128; 16] {
    let mut nibble = [0u128; 16];
    for (n, entry) in nibble.iter_mut().enumerate() {
        *entry = gf128_mul((n as u128) << 124, h);
    }
    nibble
}

/// Expands a 16-entry nibble table into the 256-entry byte table used by the
/// hot loop (cheap `x⁴` shifts only).
fn byte_table(nibble: &[u128; 16]) -> ByteTable {
    let mut table = [0u128; 256];
    for (b, entry) in table.iter_mut().enumerate() {
        // The low nibble of a byte sits four degrees above the high one.
        *entry = nibble[b >> 4] ^ mul_x4(nibble[b & 0xf]);
    }
    table
}

/// Multiplies `x` by the element whose byte table is `table`: 16 byte lookups
/// plus 15 shifted reductions, instead of 128 conditional XOR/shift rounds.
#[inline]
fn table_mul(table: &ByteTable, x: u128) -> u128 {
    let mut z = table[(x & 0xff) as usize];
    let mut shift = 8;
    while shift < 128 {
        z = (z >> 8) ^ R8[(z & 0xff) as usize] ^ table[((x >> shift) & 0xff) as usize];
        shift += 8;
    }
    z
}

impl GhashTable {
    /// Builds the tables for subkey `h`.
    pub fn new(h: u128) -> Self {
        let nibble = nibble_table(h);
        let mut powers = Box::new([[0u128; 256]; GHASH_AGG]);
        powers[0] = byte_table(&nibble);
        let mut power = h;
        for i in 1..GHASH_AGG {
            power = table_mul(&powers[0], power);
            powers[i] = byte_table(&nibble_table(power));
        }
        GhashTable { nibble, powers }
    }

    /// The 16-entry 4-bit base table (exposed for tests and documentation).
    pub fn nibble_table(&self) -> &[u128; 16] {
        &self.nibble
    }

    /// Multiplies `x` by the table's `H`.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        table_mul(&self.powers[0], x)
    }

    /// Absorbs four consecutive blocks into accumulator `y` with aggregated
    /// reduction:
    ///
    /// `Y' = (Y⊕C₀)·H⁴ ⊕ C₁·H³ ⊕ C₂·H² ⊕ C₃·H`
    ///
    /// All four products walk the same byte positions with the same shift
    /// schedule, and the shift-reduce step `z ↦ (z≫8) ⊕ R8[z & 0xff]` is
    /// linear over GF(2) — so the four accumulators fold into **one**, with a
    /// single reduction and four independent table loads per iteration. One
    /// aggregated step therefore costs barely more than one serial
    /// multiplication while absorbing four blocks.
    #[inline]
    fn fold4(&self, y: u128, blocks: [u128; 4]) -> u128 {
        let [t1, t2, t3, t4] = &*self.powers;
        let x0 = y ^ blocks[0];
        let [x1, x2, x3] = [blocks[1], blocks[2], blocks[3]];
        let mut z = t4[(x0 & 0xff) as usize]
            ^ t3[(x1 & 0xff) as usize]
            ^ t2[(x2 & 0xff) as usize]
            ^ t1[(x3 & 0xff) as usize];
        let mut shift = 8;
        while shift < 128 {
            z = (z >> 8)
                ^ R8[(z & 0xff) as usize]
                ^ t4[((x0 >> shift) & 0xff) as usize]
                ^ t3[((x1 >> shift) & 0xff) as usize]
                ^ t2[((x2 >> shift) & 0xff) as usize]
                ^ t1[((x3 >> shift) & 0xff) as usize];
            shift += 8;
        }
        z
    }
}

/// GHASH universal hash over GF(2^128), keyed by a [`GhashTable`].
#[derive(Debug, Clone)]
pub struct Ghash<'a> {
    key: &'a GhashTable,
    y: u128,
}

impl<'a> Ghash<'a> {
    /// Starts a GHASH computation with accumulator zero.
    pub fn new(key: &'a GhashTable) -> Self {
        Ghash { key, y: 0 }
    }

    /// Absorbs one 16-byte block.
    #[inline]
    pub fn update_block(&mut self, block: u128) {
        self.y = self.key.mul(self.y ^ block);
    }

    /// Absorbs `data` zero-padded to a multiple of 16 bytes. Runs of four
    /// blocks are folded with aggregated reduction (independent table walks
    /// against H⁴..H); the tail falls back to the serial single-block path.
    pub fn update_padded(&mut self, data: &[u8]) {
        let mut wide = data.chunks_exact(16 * GHASH_AGG);
        for chunk in &mut wide {
            let blocks = [
                u128::from_be_bytes(chunk[0..16].try_into().expect("16 bytes")),
                u128::from_be_bytes(chunk[16..32].try_into().expect("16 bytes")),
                u128::from_be_bytes(chunk[32..48].try_into().expect("16 bytes")),
                u128::from_be_bytes(chunk[48..64].try_into().expect("16 bytes")),
            ];
            self.y = self.key.fold4(self.y, blocks);
        }

        let mut chunks = wide.remainder().chunks_exact(16);
        for chunk in &mut chunks {
            self.update_block(u128::from_be_bytes(chunk.try_into().expect("16 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            self.update_block(u128::from_be_bytes(block));
        }
    }

    /// Returns the accumulator as a big-endian block.
    pub fn finalize(self) -> [u8; 16] {
        self.y.to_be_bytes()
    }
}

/// Carry-less multiplication in GF(2^128) with the GCM reduction polynomial,
/// operating on big-endian bit order as specified in SP 800-38D.
///
/// This is the bit-serial **reference** implementation (one conditional XOR
/// and one reducing shift per bit). The hot paths go through [`GhashTable`],
/// whose tables are *built* from this function — the equivalence property
/// test in `tests/proptests.rs` checks the two against each other.
pub const fn gf128_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    let mut i = 0;
    while i < 128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
        i += 1;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The default backend and the portable one for the same key, so every
    /// known-answer test pins both (on a CPU without AES-NI both are
    /// portable).
    fn both_backends(key: [u8; 16]) -> [AesGcm128; 2] {
        let key = Key128::from_bytes(key);
        [AesGcm128::new(&key), AesGcm128::portable(&key)]
    }

    fn ciphers_from_hex(key_hex: &str) -> [AesGcm128; 2] {
        both_backends(hex_to_bytes(key_hex).try_into().unwrap())
    }

    // NIST GCM test case 1: empty plaintext, empty AAD, zero key/IV.
    #[test]
    fn nist_test_case_1_empty() {
        for cipher in both_backends([0u8; 16]) {
            let out = cipher.seal(&[0u8; 12], b"", b"");
            assert_eq!(hex(&out), "58e2fccefa7e3061367f1d57a4e7455a");
        }
    }

    // NIST GCM test case 2: single zero block.
    #[test]
    fn nist_test_case_2_single_block() {
        for cipher in both_backends([0u8; 16]) {
            let out = cipher.seal(&[0u8; 12], &[0u8; 16], b"");
            assert_eq!(
                hex(&out),
                "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
            );
        }
    }

    // NIST GCM test case 3: 4-block plaintext with key/IV from the spec.
    #[test]
    fn nist_test_case_3() {
        for cipher in ciphers_from_hex("feffe9928665731c6d6a8f9467308308") {
            let iv = hex_to_bytes("cafebabefacedbaddecaf888");
            let plaintext = hex_to_bytes(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            );
            let out = cipher.seal(&iv, &plaintext, b"");
            let expected_ct = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";
            let expected_tag = "4d5c2af327cd64a62cf35abd2ba6fab4";
            assert_eq!(hex(&out[..plaintext.len()]), expected_ct);
            assert_eq!(hex(&out[plaintext.len()..]), expected_tag);
        }
    }

    // NIST GCM test case 4: plaintext not a multiple of the block size + AAD.
    #[test]
    fn nist_test_case_4_with_aad() {
        for cipher in ciphers_from_hex("feffe9928665731c6d6a8f9467308308") {
            let iv = hex_to_bytes("cafebabefacedbaddecaf888");
            let plaintext = hex_to_bytes(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = hex_to_bytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let out = cipher.seal(&iv, &plaintext, &aad);
            let expected_ct = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091";
            let expected_tag = "5bc94fbc3221a5db94fae95ae7121a47";
            assert_eq!(hex(&out[..plaintext.len()]), expected_ct);
            assert_eq!(hex(&out[plaintext.len()..]), expected_tag);
            // And decryption round-trips with the same AAD.
            assert_eq!(cipher.open(&iv, &out, &aad).unwrap(), plaintext);
        }
    }

    // NIST GCM test case 5: 8-byte (64-bit) IV exercises the GHASH-derived J0.
    #[test]
    fn nist_test_case_5_short_iv() {
        for cipher in ciphers_from_hex("feffe9928665731c6d6a8f9467308308") {
            let iv = hex_to_bytes("cafebabefacedbad");
            let plaintext = hex_to_bytes(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = hex_to_bytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let out = cipher.seal(&iv, &plaintext, &aad);
            let expected_ct = "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c742373806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598";
            let expected_tag = "3612d2e79e3b0785561be14aaca2fccb";
            assert_eq!(hex(&out[..plaintext.len()]), expected_ct);
            assert_eq!(hex(&out[plaintext.len()..]), expected_tag);
            assert_eq!(cipher.open(&iv, &out, &aad).unwrap(), plaintext);
        }
    }

    // NIST GCM test case 6: 60-byte IV exercises multi-block J0 hashing.
    #[test]
    fn nist_test_case_6_long_iv() {
        for cipher in ciphers_from_hex("feffe9928665731c6d6a8f9467308308") {
            let iv = hex_to_bytes(
                "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
            );
            let plaintext = hex_to_bytes(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = hex_to_bytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let out = cipher.seal(&iv, &plaintext, &aad);
            let expected_ct = "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca701e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5";
            let expected_tag = "619cc5aefffe0bfa462af43c1699d050";
            assert_eq!(hex(&out[..plaintext.len()]), expected_ct);
            assert_eq!(hex(&out[plaintext.len()..]), expected_tag);
            assert_eq!(cipher.open(&iv, &out, &aad).unwrap(), plaintext);
        }
    }

    #[test]
    fn open_rejects_wrong_aad() {
        let cipher = AesGcm128::new(&Key128::from_bytes([3u8; 16]));
        let nonce = [9u8; 12];
        let sealed = cipher.seal(&nonce, b"payload", b"path=/a");
        assert_eq!(
            cipher.open(&nonce, &sealed, b"path=/b").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn open_rejects_tampered_ciphertext_and_tag() {
        let cipher = AesGcm128::new(&Key128::from_bytes([3u8; 16]));
        let nonce = [9u8; 12];
        let sealed = cipher.seal(&nonce, b"some znode payload", b"");
        for flip_index in [0, sealed.len() / 2, sealed.len() - 1] {
            let mut tampered = sealed.clone();
            tampered[flip_index] ^= 0x80;
            assert_eq!(
                cipher.open(&nonce, &tampered, b"").unwrap_err(),
                CryptoError::AuthenticationFailed,
                "flip at {flip_index}"
            );
        }
    }

    #[test]
    fn open_rejects_short_input() {
        let cipher = AesGcm128::new(&Key128::from_bytes([3u8; 16]));
        let err = cipher.open(&[0u8; 12], &[1, 2, 3], b"").unwrap_err();
        assert!(matches!(err, CryptoError::CiphertextTooShort { got: 3, need: 16 }));
    }

    #[test]
    fn different_nonces_produce_different_ciphertexts() {
        let cipher = AesGcm128::new(&Key128::from_bytes([5u8; 16]));
        let a = cipher.seal(&[0u8; 12], b"same plaintext", b"");
        let b = cipher.seal(&[1u8; 12], b"same plaintext", b"");
        assert_ne!(a, b);
    }

    #[test]
    fn overhead_is_tag_length() {
        let cipher = AesGcm128::new(&Key128::from_bytes([5u8; 16]));
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let sealed = cipher.seal(&[0u8; 12], &vec![0u8; len], b"");
            assert_eq!(sealed.len(), len + AesGcm128::overhead());
        }
    }

    #[test]
    fn in_place_seal_matches_copying_seal() {
        let cipher = AesGcm128::new(&Key128::from_bytes([8u8; 16]));
        let nonce = [2u8; 12];
        for len in [0usize, 1, 15, 16, 63, 64, 65, 1000] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let expected = cipher.seal(&nonce, &plaintext, b"aad");
            let mut buffer = plaintext.clone();
            cipher.seal_in_place(&nonce, &mut buffer, b"aad");
            assert_eq!(buffer, expected, "len {len}");
            cipher.open_in_place(&nonce, &mut buffer, b"aad").unwrap();
            assert_eq!(buffer, plaintext, "len {len}");
        }
    }

    #[test]
    fn suffix_apis_leave_prefix_untouched() {
        let cipher = AesGcm128::new(&Key128::from_bytes([8u8; 16]));
        let nonce = [2u8; 12];
        let mut buffer = b"HDR-".to_vec();
        buffer.extend_from_slice(b"secret body");
        cipher.seal_in_place_suffix(&nonce, &mut buffer, 4, b"");
        assert_eq!(&buffer[..4], b"HDR-");
        assert_eq!(buffer.len(), 4 + 11 + TAG_LEN);
        // The suffix alone must match a plain seal of the body.
        assert_eq!(&buffer[4..], &cipher.seal(&nonce, b"secret body", b"")[..]);
        cipher.open_in_place_suffix(&nonce, &mut buffer, 4, b"").unwrap();
        assert_eq!(&buffer[..], b"HDR-secret body");
    }

    #[test]
    fn open_in_place_leaves_buffer_unmodified_on_failure() {
        let cipher = AesGcm128::new(&Key128::from_bytes([8u8; 16]));
        let nonce = [2u8; 12];
        let mut buffer = cipher.seal(&nonce, b"payload", b"");
        buffer[0] ^= 1;
        let tampered = buffer.clone();
        assert!(cipher.open_in_place(&nonce, &mut buffer, b"").is_err());
        assert_eq!(buffer, tampered);
    }

    #[test]
    fn ghash_table_matches_reference_multiplication() {
        // The spec's H from test case 3, plus structured values.
        let h = 0xb83b533708bf535d0aa6e52980d53b78u128;
        let table = GhashTable::new(h);
        for x in [0u128, 1, 0xf, u128::MAX, 1 << 127, 0x0123_4567_89ab_cdef, h] {
            assert_eq!(table.mul(x), gf128_mul(x, h), "x = {x:#034x}");
        }
    }

    #[test]
    fn byte_table_is_consistent_with_nibble_table() {
        let h = 0xb83b533708bf535d0aa6e52980d53b78u128;
        let table = GhashTable::new(h);
        let nibble = table.nibble_table();
        for n in 0..16u128 {
            assert_eq!(nibble[n as usize], gf128_mul(n << 124, h));
        }
        // Every byte entry of every power table is the direct product with
        // the byte polynomial placed at degrees 0..7.
        let mut power = h;
        for (i, table) in table.powers.iter().enumerate() {
            for b in 0..=255u8 {
                let expected = gf128_mul((b as u128) << 120, power);
                assert_eq!(table[b as usize], expected, "power {} byte {b:#x}", i + 1);
            }
            power = gf128_mul(power, h);
        }
    }

    #[test]
    fn aggregated_update_matches_serial_update() {
        let h = 0xb83b533708bf535d0aa6e52980d53b78u128;
        let table = GhashTable::new(h);
        for len in [0usize, 1, 15, 16, 63, 64, 65, 128, 200, 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut fast = Ghash::new(&table);
            fast.update_padded(&data);
            // Serial oracle: one reference multiplication per block.
            let mut y = 0u128;
            for chunk in data.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                y = gf128_mul(y ^ u128::from_be_bytes(block), h);
            }
            assert_eq!(fast.finalize(), y.to_be_bytes(), "len {len}");
        }
    }

    #[test]
    fn debug_output_redacts_ghash_tables() {
        let key = Key128::from_bytes([9u8; 16]);
        let cipher = AesGcm128::portable(&key);
        let rendered = format!("{cipher:?}");
        assert!(rendered.contains("redacted"));
        assert!(rendered.contains(PORTABLE_BACKEND));
        // The GHASH subkey for this key must not appear in any form: check
        // that no table word leaks as a decimal number.
        let Backend::Portable(portable) = &cipher.backend else { unreachable!() };
        let h = portable.ghash_key.nibble[8];
        assert!(!rendered.contains(&format!("{h}")));
        assert!(!rendered.contains(&format!("{:x}", h)));
        // The hardware backend prints its name and nothing key-derived.
        let rendered = format!("{:?}", AesGcm128::new(&key));
        assert!(rendered.contains(backend_name()) && rendered.contains("redacted"));
        assert!(!rendered.contains(&format!("{h}")));
    }

    #[test]
    fn gf128_identity_and_commutativity() {
        // 1 (the polynomial "1") is bit 127 in GCM bit order.
        let one = 1u128 << 127;
        for v in [0x5555_aaaa_5555_aaaau128, 1, u128::MAX] {
            assert_eq!(gf128_mul(v, one), v);
            assert_eq!(gf128_mul(one, v), v);
            assert_eq!(gf128_mul(v, 0x1234), gf128_mul(0x1234, v));
        }
    }
}
