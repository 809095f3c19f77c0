//! Property-based tests for the cryptographic primitives.

use proptest::prelude::*;
use zkcrypto::aes::Aes128;
use zkcrypto::base64url;
use zkcrypto::gcm::{gf128_mul, AesGcm128, GhashTable};
use zkcrypto::hmac::{hmac_sha256, verify_hmac_sha256};
use zkcrypto::keys::Key128;
use zkcrypto::sha256::Sha256;

fn u128_from_bytes(bytes: [u8; 16]) -> u128 {
    u128::from_be_bytes(bytes)
}

/// GHASH straight from SP 800-38D: one bit-serial multiplication per
/// zero-padded block of each part, then the closing block.
fn naive_ghash(h: u128, parts: [&[u8]; 2], closing: u128) -> u128 {
    let mut y = 0u128;
    for part in parts {
        for chunk in part.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf128_mul(y ^ u128::from_be_bytes(block), h);
        }
    }
    gf128_mul(y ^ closing, h)
}

/// Naive reference AES-GCM seal built only from the byte-oriented reference
/// AES and the bit-serial `gf128_mul`: per-block CTR, any nonce length.
fn naive_seal(key: [u8; 16], nonce: &[u8], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    let aes = Aes128::new(&key);
    let encrypt = |block: [u8; 16]| {
        let mut out = block;
        aes.encrypt_block_reference(&mut out);
        out
    };
    let h = u128::from_be_bytes(encrypt([0u8; 16]));
    let j0 = if nonce.len() == 12 {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    } else {
        naive_ghash(h, [nonce, &[]], nonce.len() as u128 * 8).to_be_bytes()
    };
    let mut counter = j0;
    let mut out = plaintext.to_vec();
    for chunk in out.chunks_mut(16) {
        let ctr = u32::from_be_bytes(counter[12..].try_into().unwrap()).wrapping_add(1);
        counter[12..].copy_from_slice(&ctr.to_be_bytes());
        for (byte, ks) in chunk.iter_mut().zip(encrypt(counter)) {
            *byte ^= ks;
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
    let s = naive_ghash(h, [aad, &out], lengths).to_be_bytes();
    let tag: Vec<u8> = s.iter().zip(encrypt(j0)).map(|(a, b)| a ^ b).collect();
    out.extend_from_slice(&tag);
    out
}

/// Mostly 96-bit nonces (the fast `IV || ctr` path), sometimes any other
/// length (J0 hashed with GHASH).
fn nonce_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 12),
        1 => proptest::collection::vec(any::<u8>(), 1..64),
    ]
}

proptest! {
    // The T-table fast path and the retained byte-oriented reference
    // implementation must agree on every key/block pair, in both directions.
    #[test]
    fn aes_table_path_equals_reference_path(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        let cipher = Aes128::new(&key);

        let mut fast = block;
        cipher.encrypt_block(&mut fast);
        let mut reference = block;
        cipher.encrypt_block_reference(&mut reference);
        prop_assert_eq!(fast, reference);

        let mut fast_dec = fast;
        cipher.decrypt_block(&mut fast_dec);
        let mut ref_dec = reference;
        cipher.decrypt_block_reference(&mut ref_dec);
        prop_assert_eq!(fast_dec, block);
        prop_assert_eq!(ref_dec, block);
    }

    // The 4-bit-table GHASH multiplication must agree with the bit-serial
    // reference gf128_mul for every (H, X) pair.
    #[test]
    fn ghash_table_equals_reference_gf128_mul(
        h_bytes in any::<[u8; 16]>(),
        xs in proptest::collection::vec(any::<[u8; 16]>(), 1..16),
    ) {
        let h = u128_from_bytes(h_bytes);
        let table = GhashTable::new(h);
        for x_bytes in xs {
            let x = u128_from_bytes(x_bytes);
            prop_assert_eq!(table.mul(x), gf128_mul(x, h), "x = {:#034x}", x);
        }
    }

    // The zero-allocation in-place GCM APIs must be byte-identical to the
    // copying wrappers, for aligned and unaligned lengths alike.
    #[test]
    fn gcm_in_place_equals_copying_api(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..512),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let cipher = AesGcm128::new(&Key128::from_bytes(key));
        let expected = cipher.seal(&nonce, &plaintext, &aad);

        let mut buffer = plaintext.clone();
        cipher.seal_in_place(&nonce, &mut buffer, &aad);
        prop_assert_eq!(&buffer, &expected);

        cipher.open_in_place(&nonce, &mut buffer, &aad).unwrap();
        prop_assert_eq!(&buffer, &plaintext);
    }

    // The default backend (AES-NI + CLMUL where the CPU has it), the portable
    // table-driven backend and the naive reference GCM produce the same
    // bytes, and each backend opens the other's output.
    #[test]
    fn gcm_hardware_portable_and_naive_reference_agree(
        key in any::<[u8; 16]>(),
        nonce in nonce_strategy(),
        aad in proptest::collection::vec(any::<u8>(), 0..=80),
        plaintext in proptest::collection::vec(any::<u8>(), 0..=1100),
    ) {
        let default = AesGcm128::new(&Key128::from_bytes(key));
        let portable = AesGcm128::portable(&Key128::from_bytes(key));
        prop_assert!(format!("{default:?}").contains(zkcrypto::gcm::backend_name()));

        let expected = naive_seal(key, &nonce, &plaintext, &aad);
        let from_default = default.seal(&nonce, &plaintext, &aad);
        let from_portable = portable.seal(&nonce, &plaintext, &aad);
        prop_assert_eq!(&from_default, &expected);
        prop_assert_eq!(&from_portable, &expected);

        prop_assert_eq!(&default.open(&nonce, &expected, &aad).unwrap(), &plaintext);
        prop_assert_eq!(&portable.open(&nonce, &expected, &aad).unwrap(), &plaintext);
    }

    // A flipped bit in the ciphertext, the tag or the AAD is rejected by both
    // backends, and the in-place open leaves the buffer as it was.
    #[test]
    fn gcm_tampering_is_rejected_by_both_backends(
        key in any::<[u8; 16]>(),
        nonce in nonce_strategy(),
        aad in proptest::collection::vec(any::<u8>(), 1..=80),
        plaintext in proptest::collection::vec(any::<u8>(), 0..=1100),
        target in 0u8..3,
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let key = Key128::from_bytes(key);
        let sealed = AesGcm128::portable(&key).seal(&nonce, &plaintext, &aad);
        let (mut sealed_bad, mut aad_bad) = (sealed.clone(), aad.clone());
        match (target, plaintext.is_empty()) {
            (0, false) => sealed_bad[at.index(plaintext.len())] ^= 1 << bit,
            // The tag (also when there is no ciphertext to flip).
            (0 | 1, _) => sealed_bad[plaintext.len() + at.index(16)] ^= 1 << bit,
            _ => aad_bad[at.index(aad.len())] ^= 1 << bit,
        }
        for cipher in [AesGcm128::new(&key), AesGcm128::portable(&key)] {
            prop_assert!(cipher.open(&nonce, &sealed_bad, &aad_bad).is_err());
            let mut buffer = sealed_bad.clone();
            prop_assert!(cipher.open_in_place(&nonce, &mut buffer, &aad_bad).is_err());
            prop_assert_eq!(&buffer, &sealed_bad);
            prop_assert_eq!(&cipher.open(&nonce, &sealed, &aad).unwrap(), &plaintext);
        }
    }

    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = base64url::encode(&data);
        prop_assert_eq!(base64url::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn base64_output_is_path_safe(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = base64url::encode(&data);
        prop_assert!(encoded.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }

    #[test]
    fn gcm_roundtrip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..1024),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let cipher = AesGcm128::new(&Key128::from_bytes(key));
        let sealed = cipher.seal(&nonce, &plaintext, &aad);
        prop_assert_eq!(sealed.len(), plaintext.len() + 16);
        prop_assert_eq!(cipher.open(&nonce, &sealed, &aad).unwrap(), plaintext);
    }

    #[test]
    fn gcm_detects_any_single_bit_flip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let cipher = AesGcm128::new(&Key128::from_bytes(key));
        let mut sealed = cipher.seal(&nonce, &plaintext, b"");
        let idx = flip_byte.index(sealed.len());
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(cipher.open(&nonce, &sealed, b"").is_err());
    }

    #[test]
    fn gcm_wrong_key_fails(
        key_a in any::<[u8; 16]>(),
        key_b in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assume!(key_a != key_b);
        let sealer = AesGcm128::new(&Key128::from_bytes(key_a));
        let opener = AesGcm128::new(&Key128::from_bytes(key_b));
        let sealed = sealer.seal(&nonce, &plaintext, b"");
        prop_assert!(opener.open(&nonce, &sealed, b"").is_err());
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(data.len() + 1);
        let mut hasher = Sha256::new();
        hasher.update(&data[..cut]);
        hasher.update(&data[cut..]);
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    // `finalize` writes the padding straight into the block buffer; the
    // textbook reference pads a copy of the whole message. Lengths cover
    // every residue mod 64, so both the one- and two-block padding paths
    // (and the 55/56-byte boundary) are hit.
    #[test]
    fn sha256_finalize_matches_the_one_shot_reference(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut from = 0;
        for cut in cuts {
            hasher.update(&data[from..cut]);
            from = cut;
        }
        hasher.update(&data[from..]);
        prop_assert_eq!(hasher.finalize(), Sha256::digest_reference(&data));
    }

    // The default hasher (SHA-NI where the CPU has it) and the pinned
    // portable one, fed the same message through the same random `update`
    // splits, both equal the portable one-shot reference. Lengths up to
    // 4 KiB cover multi-block kernel calls as well as every padding residue.
    #[test]
    fn sha256_backends_match_the_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let expected = Sha256::digest_reference(&data);
        for mut hasher in [Sha256::new(), Sha256::portable()] {
            let mut from = 0;
            for &cut in &cuts {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            hasher.update(&data[from..]);
            prop_assert_eq!(hasher.finalize(), expected);
        }
    }

    #[test]
    fn hmac_verifies_own_output(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify_hmac_sha256(&key, &msg, &tag));
    }

    #[test]
    fn hmac_distinguishes_messages(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg_a in proptest::collection::vec(any::<u8>(), 0..256),
        msg_b in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(msg_a != msg_b);
        prop_assert_ne!(hmac_sha256(&key, &msg_a), hmac_sha256(&key, &msg_b));
    }
}
