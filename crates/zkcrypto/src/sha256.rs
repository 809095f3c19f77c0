//! SHA-256 as specified in FIPS 180-4.
//!
//! SecureKeeper derives path-chunk initialization vectors from the SHA-256
//! hash of the path prefix, and binds payloads to their znode path by storing
//! a SHA-256 digest of the path alongside the payload.
//!
//! [`Sha256::new`] picks the block function once per hasher, by CPU
//! detection: on a CPU with the SHA extensions (plus `ssse3` and `sse4.1`)
//! it runs the SHA-NI kernel of the vendored `gcmhw` crate, which holds all
//! of its `unsafe`; elsewhere it runs the portable FIPS 180-4 code of this
//! module. Padding and buffering are shared, so both backends produce the
//! same digest; [`Sha256::portable`] pins the fallback for tests and
//! benchmarks, and [`Sha256::digest_reference`] always runs it, as the oracle
//! the property tests check both against. [`backend_name`] says which backend
//! `new` selects.

use gcmhw::sha256::Kernel;

/// Name of the SHA-NI backend.
const HW_BACKEND: &str = "sha-ni";
/// Name of the portable software backend.
const PORTABLE_BACKEND: &str = "portable";

/// The backend [`Sha256::new`] selects on this CPU: `"sha-ni"` or
/// `"portable"`.
pub fn backend_name() -> &'static str {
    if gcmhw::sha256::is_supported() {
        HW_BACKEND
    } else {
        PORTABLE_BACKEND
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use zkcrypto::sha256::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     zkcrypto::base64url::encode(&digest),
///     "ungWv48Bz-pBQUDeXa4iI7ADYaOWF3qctBD_YfIAFa0"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
    /// The SHA-NI block function, or `None` for the portable one.
    kernel: Option<Kernel>,
}

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher with the FIPS 180-4 initial state, on the SHA-NI
    /// backend if the CPU supports it, else on the portable one.
    pub fn new() -> Self {
        Sha256 { kernel: Kernel::new(), ..Sha256::portable() }
    }

    /// Creates a hasher on the portable backend whatever the CPU supports.
    /// For equivalence tests and benchmarks that must run the fallback on a
    /// SHA-NI host; production code calls [`Sha256::new`].
    pub fn portable() -> Self {
        Sha256 { state: H0, length: 0, buffer: [0; 64], buffered: 0, kernel: None }
    }

    /// Convenience helper: hash `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&[block]);
                self.buffered = 0;
            }
        }
        let (blocks, rest) = input.as_chunks::<64>();
        self.compress(blocks);
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding (FIPS 180-4 §5.1.1), written straight into the last
        // block: 0x80, zeros, then the 64-bit big-endian message length in
        // bits. When fewer than 9 bytes are free the length spills into a
        // second, otherwise all-zero block.
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&[block]);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        self.compress(&[block]);
        to_digest(&self.state)
    }

    /// Textbook one-shot SHA-256 on the portable backend: pads the whole
    /// message into a fresh buffer and compresses it block by block.
    /// Retained as the reference oracle the property tests check the
    /// incremental hasher, on either backend, against.
    pub fn digest_reference(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&((data.len() as u64).wrapping_mul(8)).to_be_bytes());
        let mut state = H0;
        for block in message.as_chunks::<64>().0 {
            compress_portable(&mut state, block);
        }
        to_digest(&state)
    }

    /// Absorbs whole blocks on this hasher's backend.
    fn compress(&mut self, blocks: &[[u8; 64]]) {
        match &self.kernel {
            Some(kernel) => kernel.compress(&mut self.state, blocks),
            None => blocks.iter().for_each(|block| compress_portable(&mut self.state, block)),
        }
    }
}

/// A chaining state as a big-endian digest.
fn to_digest(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    out
}

/// The FIPS 180-4 compression function (§6.2.2) in portable Rust.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The hex digest of `data` on the default and the portable backend,
    /// checked equal.
    fn hex_digest(data: &[u8]) -> String {
        let hashers = [Sha256::new(), Sha256::portable()];
        let [default, portable] = hashers.map(|mut h| {
            h.update(data);
            hex(&h.finalize())
        });
        assert_eq!(default, portable);
        default
    }

    // Known-answer tests from FIPS 180-4 / NIST example vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn one_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one_shot = Sha256::digest(&data);
            let mut incremental = Sha256::new();
            for chunk in data.chunks(7) {
                incremental.update(chunk);
            }
            assert_eq!(one_shot, incremental.finalize(), "length {len}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..100]);
        h.update(&data[100..500]);
        h.update(&data[500..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn reference_matches_nist_vectors() {
        assert_eq!(
            hex(&Sha256::digest_reference(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest_reference(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn new_runs_the_backend_backend_name_reports() {
        assert_eq!(Sha256::new().kernel.is_some(), backend_name() == HW_BACKEND);
        assert!(Sha256::portable().kernel.is_none());
    }

    #[test]
    fn digests_differ_for_different_inputs() {
        assert_ne!(Sha256::digest(b"/config/db"), Sha256::digest(b"/config/dc"));
    }
}
