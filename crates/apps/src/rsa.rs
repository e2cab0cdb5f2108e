//! *RSA*: the cryptosystem benchmark — key generation, encryption and
//! decryption on top of Montgomery exponentiation.
//!
//! The paper notes RSA benefits most from Cambricon-P at large key sizes
//! because "RSA is composed of Montgomery reductions (implemented by
//! pairs of multiply and add operations) and squares" (§VII-C).

use crate::backend::Session;
use apc_bignum::Nat;
use rand::Rng;

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKey {
    /// Modulus n = p·q.
    pub n: Nat,
    /// Public exponent (65537).
    pub e: Nat,
    /// Private exponent d = e⁻¹ mod λ(n).
    pub d: Nat,
    /// First prime factor.
    pub p: Nat,
    /// Second prime factor.
    pub q: Nat,
}

impl RsaKey {
    /// Modulus size in bits.
    pub fn bits(&self) -> u64 {
        self.n.bit_len()
    }
}

/// Generates an RSA key with a modulus of roughly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 32`.
pub fn generate<R: Rng>(bits: u64, rng: &mut R) -> RsaKey {
    assert!(bits >= 32, "modulus too small for RSA");
    let e = Nat::from(65_537u64);
    loop {
        let p = Nat::random_prime(bits / 2, rng);
        let q = Nat::random_prime(bits - bits / 2, rng);
        if p == q {
            continue;
        }
        let n = &p * &q;
        let p1 = &p - &Nat::one();
        let q1 = &q - &Nat::one();
        // λ(n) = lcm(p−1, q−1)
        let lambda = p1.lcm(&q1);
        match e.mod_inverse(&lambda) {
            Some(d) => {
                return RsaKey { n, e, d, p, q };
            }
            None => continue,
        }
    }
}

/// Encrypts `message` (< n) with the public key.
///
/// # Panics
///
/// Panics if `message >= n`.
pub fn encrypt(key: &RsaKey, message: &Nat, session: &Session) -> Nat {
    assert!(message < &key.n, "message must be below the modulus");
    session.pow_mod(message, &key.e, &key.n)
}

/// Decrypts `cipher` with the private key.
pub fn decrypt(key: &RsaKey, cipher: &Nat, session: &Session) -> Nat {
    session.pow_mod(cipher, &key.d, &key.n)
}

/// Decrypts using the CRT optimization (two half-size exponentiations —
/// the standard production optimization; it quarters the work).
pub fn decrypt_crt(key: &RsaKey, cipher: &Nat, session: &Session) -> Nat {
    let p1 = &key.p - &Nat::one();
    let q1 = &key.q - &Nat::one();
    let dp = &key.d % &p1;
    let dq = &key.d % &q1;
    let mp = session.pow_mod(&(cipher % &key.p), &dp, &key.p);
    let mq = session.pow_mod(&(cipher % &key.q), &dq, &key.q);
    // Garner recombination: m = mq + q·(qinv·(mp − mq) mod p)
    #[expect(
        clippy::expect_used,
        reason = "KeyPair generation guarantees p != q are prime"
    )]
    let qinv = key.q.mod_inverse(&key.p).expect("p, q are distinct primes");
    let diff = if mp >= mq {
        session.sub(&mp, &mq)
    } else {
        // (mp − mq) mod p
        session.sub(&session.add(&mp, &key.p), &(&mq % &key.p))
    };
    let h = session.mul(&qinv, &diff) % &key.p;
    session.add(&mq, &session.mul(&h, &key.q))
}

/// Signs a message digest: `s = m^d mod n` (textbook RSA signature — no
/// padding scheme, as this is a performance workload, not a production
/// crypto library).
pub fn sign(key: &RsaKey, digest: &Nat, session: &Session) -> Nat {
    assert!(digest < &key.n, "digest must be below the modulus");
    session.pow_mod(digest, &key.d, &key.n)
}

/// Verifies a signature: checks `s^e mod n == digest`.
pub fn verify(key: &RsaKey, digest: &Nat, signature: &Nat, session: &Session) -> bool {
    session.pow_mod(signature, &key.e, &key.n) == *digest
}

/// One paper-style RSA workload unit: encrypt + decrypt a batch of random
/// messages at the key size; returns the number of verified round trips.
pub fn roundtrip_workload<R: Rng>(
    key: &RsaKey,
    messages: usize,
    session: &Session,
    rng: &mut R,
) -> usize {
    let mut ok = 0;
    for _ in 0..messages {
        let m = Nat::random_below(&key.n, rng);
        let c = encrypt(key, &m, session);
        if decrypt(key, &c, session) == m {
            ok += 1;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn key_generation_invariants() {
        let mut r = rng();
        let key = generate(256, &mut r);
        assert_eq!(&key.p * &key.q, key.n);
        assert!(key.bits() >= 250);
        // e·d ≡ 1 mod λ(n)
        let lambda = (&key.p - &Nat::one()).lcm(&(&key.q - &Nat::one()));
        assert!((&(&key.e * &key.d) % &lambda).is_one());
    }

    #[test]
    fn roundtrip_small_key() {
        let mut r = rng();
        let key = generate(256, &mut r);
        let s = Session::software();
        let m = Nat::from(0xDEAD_BEEF_CAFEu64);
        let c = encrypt(&key, &m, &s);
        assert_ne!(c, m);
        assert_eq!(decrypt(&key, &c, &s), m);
    }

    #[test]
    fn crt_matches_plain_decrypt() {
        let mut r = rng();
        let key = generate(512, &mut r);
        let s = Session::software();
        for _ in 0..3 {
            let m = Nat::random_below(&key.n, &mut r);
            let c = encrypt(&key, &m, &s);
            assert_eq!(decrypt_crt(&key, &c, &s), decrypt(&key, &c, &s));
        }
    }

    #[test]
    fn device_backend_roundtrip() {
        let mut r = rng();
        let key = generate(256, &mut r);
        let hw = Session::cambricon_p();
        let m = Nat::from(123_456_789u64);
        let c = encrypt(&key, &m, &hw);
        assert_eq!(decrypt(&key, &c, &hw), m);
        assert!(hw.report().device_seconds > 0.0);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng();
        let key = generate(256, &mut r);
        let s = Session::software();
        let digest = Nat::random_below(&key.n, &mut r);
        let sig = sign(&key, &digest, &s);
        assert!(verify(&key, &digest, &sig, &s));
        // A tampered digest fails.
        let other = &(&digest + &Nat::one()) % &key.n;
        assert!(!verify(&key, &other, &sig, &s));
        // A tampered signature fails.
        let bad_sig = &(&sig + &Nat::one()) % &key.n;
        assert!(!verify(&key, &digest, &bad_sig, &s));
    }

    #[test]
    fn signatures_interoperate_across_backends() {
        let mut r = rng();
        let key = generate(256, &mut r);
        let sw = Session::software();
        let hw = Session::cambricon_p();
        let digest = Nat::from(0xFEED_FACE_u64);
        let sig = sign(&key, &digest, &hw);
        assert!(verify(&key, &digest, &sig, &sw));
    }

    #[test]
    fn workload_counts_roundtrips() {
        let mut r = rng();
        let key = generate(128, &mut r);
        let s = Session::software();
        assert_eq!(roundtrip_workload(&key, 5, &s, &mut r), 5);
    }

    #[test]
    #[should_panic(expected = "below the modulus")]
    fn oversized_message_rejected() {
        let mut r = rng();
        let key = generate(64, &mut r);
        let s = Session::software();
        let _ = encrypt(&key, &key.n, &s);
    }
}
