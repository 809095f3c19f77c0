//! Seeded input generation: the random stream, the Zipf key chooser and the
//! self-describing payloads every read is checked against.
//!
//! Everything the program under test sees is derived from the `--seed`
//! argument through these functions, so one seed always produces the same
//! keys, the same operation order and the same payload bytes.

/// Eight bytes at the head of every generated payload. The secure
/// workloads scan the member trees for it: finding it means a payload was
/// stored in plaintext.
pub const MARKER: &[u8; 8] = b"pbMARK!~";

/// Smallest payload the format fits in: marker, key, version, checksum.
pub const MIN_PAYLOAD: usize = 24;

/// The splitmix64 finaliser: a cheap, well-mixed 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream. `stream` separates independent streams drawn from
/// one seed (one per client session, one for the key permutation, ...).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed choice over `n` items. Popularity ranks are assigned to
/// items through a seeded permutation, so the hot items are spread over the
/// namespace instead of sitting in its first group.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    /// Zipf(`theta`) over `n` items, ranks permuted by stream `stream` of
    /// `seed`.
    pub fn new(n: usize, theta: f64, seed: u64, stream: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::new(seed, stream);
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, item_of_rank }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.item_of_rank[rank] as usize
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The payload of `key` at `version` under `seed`: marker, key, version,
/// seeded body bytes and an FNV-1a checksum over everything before it.
pub fn payload(seed: u64, key: u32, version: u32, len: usize) -> Vec<u8> {
    assert!(len >= MIN_PAYLOAD, "payload of {len} bytes cannot hold its header");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MARKER);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut rng = Rng::new(seed, (u64::from(key) << 32) | u64::from(version));
    while out.len() < len - 8 {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - 8 - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Checks that `data` is exactly the payload of `key` at `version`.
///
/// # Errors
///
/// Describes the first mismatch: length, marker, key, version, checksum or
/// body bytes.
pub fn verify_payload(
    seed: u64,
    key: u32,
    version: u32,
    len: usize,
    data: &[u8],
) -> Result<(), String> {
    if data.len() != len {
        return Err(format!("key {key} v{version}: {} bytes, expected {len}", data.len()));
    }
    if &data[..8] != MARKER {
        return Err(format!("key {key} v{version}: payload marker missing"));
    }
    let field = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
    if field(8) != key || field(12) != version {
        return Err(format!(
            "key {key} v{version}: payload belongs to key {} v{}",
            field(8),
            field(12)
        ));
    }
    let (body, sum) = data.split_at(len - 8);
    if checksum(body).to_le_bytes() != sum {
        return Err(format!("key {key} v{version}: payload checksum mismatch"));
    }
    if data != payload(seed, key, version, len).as_slice() {
        return Err(format!("key {key} v{version}: payload bytes differ from the seeded content"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(payload(7, 3, 1, 64), payload(7, 3, 1, 64));
        assert_ne!(payload(7, 3, 1, 64), payload(8, 3, 1, 64));
    }

    #[test]
    fn zipf_favours_its_top_rank() {
        let zipf = Zipf::new(1000, 0.99, 1, 2);
        let mut rng = Rng::new(1, 3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let top = zipf.item_of_rank[0] as usize;
        assert_eq!(counts.iter().max(), Some(&counts[top]));
    }
}
