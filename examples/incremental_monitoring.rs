//! Streaming weak-key monitoring: a certificate-authority-style service
//! that checks every newly submitted RSA key against all keys seen so far
//! using the incremental segment-product index, rejects weak submissions, and
//! demonstrates just how broken a flagged key is by decrypting traffic
//! with a CRT key rebuilt from the shared factor.
//!
//! Run with: `cargo run --release --example incremental_monitoring`

use bulk_gcd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(31337);
    let bits = 256;
    // A faulty vendor generator that reuses primes 30% of the time, mixed
    // with a healthy one.
    let mut faulty = WeakKeygen::new(bits, 0.30);

    let mut index = CorpusIndex::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;

    println!("Monitoring 40 key submissions ({bits}-bit moduli, 30% of vendors reuse primes)\n");
    for submission in 0..40 {
        let kp = if rng.gen_bool(0.5) {
            faulty.generate(&mut rng)
        } else {
            generate_keypair(&mut rng, bits)
        };
        let n = kp.public.n.clone();
        let shared = index
            .check_and_insert(&n)
            .expect("generated moduli are never zero");
        if shared.is_one() {
            accepted += 1;
            continue;
        }
        rejected += 1;
        println!(
            "submission {submission:>2}: REJECTED - modulus shares factor {} with an earlier key",
            shared.to_hex()
        );
        if shared == n {
            println!("              (exact duplicate modulus)");
            continue;
        }
        // Show the damage: rebuild a CRT private key from the leak and
        // decrypt a message encrypted to the submitted public key.
        let crt = CrtPrivateKey::from_leaked_factor(&kp.public, &shared)
            .expect("shared factor splits the modulus");
        let secret = Nat::from(0x5ec2e7u32 + submission as u32);
        let c = encrypt(&kp.public, &secret).unwrap();
        let recovered = crt.decrypt(&c);
        assert_eq!(recovered, secret);
        println!(
            "              proof: intercepted ciphertext decrypts to {} via CRT key",
            recovered
        );
    }
    println!("\n{accepted} accepted, {rejected} rejected out of 40 submissions");
    println!("index now holds {} moduli", index.len());
    assert!(rejected > 0, "with 30% reuse some submission must collide");
}
