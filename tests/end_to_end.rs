//! Integration tests spanning the workspace crates: the device model, the
//! software substrate, the applications and the baselines must all agree
//! with each other.

use cambricon_p_repro::apc_apps::backend::Session;
use cambricon_p_repro::apc_apps::{pi, rsa, zkcm};
use cambricon_p_repro::apc_bignum::{MulAlgorithm, Nat};
use cambricon_p_repro::cambricon_p::accelerator::Accelerator;
use cambricon_p_repro::cambricon_p::mpapca::MpapcaThresholds;
use cambricon_p_repro::cambricon_p::transform::{convolve, recompose, to_limb_vector};
use cambricon_p_repro::cambricon_p::{ArchConfig, Device};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn structural_model_matches_mpapca_and_oracle() {
    let mut rng = StdRng::seed_from_u64(42);
    let acc = Accelerator::new_default();
    let dev = Device::new_default();
    for bits in [64u64, 777, 2048, 4096] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let oracle = &a * &b;
        assert_eq!(acc.multiply(&a, &b).product, oracle, "structural {bits}");
        assert_eq!(dev.mul(&a, &b), oracle, "mpapca {bits}");
    }
}

#[test]
fn equation_one_holds_at_device_limb_width() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Nat::random_exact_bits(10_000, &mut rng);
    let b = Nat::random_exact_bits(9_000, &mut rng);
    let xs = to_limb_vector(&a, 32);
    let ys = to_limb_vector(&b, 32);
    let ips = convolve(&xs, &ys);
    assert_eq!(recompose(&ips, 32), &a * &b);
}

#[test]
fn every_mul_algorithm_agrees_with_the_device() {
    let mut rng = StdRng::seed_from_u64(11);
    let dev = Device::new_default();
    let a = Nat::random_exact_bits(30_000, &mut rng);
    let b = Nat::random_exact_bits(28_000, &mut rng);
    let device_result = dev.mul(&a, &b);
    for alg in [
        MulAlgorithm::Karatsuba,
        MulAlgorithm::Toom3,
        MulAlgorithm::Toom4,
        MulAlgorithm::Toom6,
        MulAlgorithm::Ssa,
    ] {
        assert_eq!(a.mul_with(&b, alg), device_result, "{alg:?}");
    }
}

#[test]
fn pi_is_identical_across_backends_and_correct() {
    let sw = Session::software();
    let hw = Session::cambricon_p();
    let p1 = pi::chudnovsky_pi(120, &sw);
    let p2 = pi::chudnovsky_pi(120, &hw);
    assert_eq!(p1, p2);
    assert!(p1.starts_with("3.14159265358979323846264338327950288419716939937510"));
}

#[test]
fn rsa_crosses_backends() {
    // Encrypt on software, decrypt on the device — ciphertexts are plain
    // numbers, so the backends must interoperate.
    let mut rng = StdRng::seed_from_u64(5);
    let key = rsa::generate(384, &mut rng);
    let sw = Session::software();
    let hw = Session::cambricon_p();
    let m = Nat::random_below(&key.n, &mut rng);
    let c = rsa::encrypt(&key, &m, &sw);
    assert_eq!(rsa::decrypt(&key, &c, &hw), m);
}

#[test]
fn ghz_state_is_unitary_on_device() {
    let hw = Session::cambricon_p();
    let st = zkcm::ghz(3, 256, &hw);
    let norm = st.norm_sq(&hw);
    let err = (st.ctx.to_f64(&norm) - 1.0).abs();
    assert!(err < 1e-12, "norm error {err}");
}

#[test]
fn device_speedup_grows_with_monolithic_size() {
    // The Figure 11 shape in miniature: the device's advantage over the
    // modeled CPU grows through the monolithic range.
    let dev = Device::new_default();
    let mut prev_ratio = 0.0;
    for bits in [1_024u64, 4_096, 16_384] {
        let cpu = cambricon_p_repro::apc_baselines::cpu::mul_seconds(bits);
        let d = dev.mul_cycles(bits, bits) as f64 * dev.config().cycle_seconds();
        let ratio = cpu / d;
        assert!(ratio > prev_ratio, "speedup should grow at {bits} bits");
        prev_ratio = ratio;
    }
    assert!(prev_ratio > 50.0, "monolithic range speedup is large");
}

#[test]
fn monolithic_cycles_fall_as_limbs_widen() {
    // The limb-width ablation (`limb_width` in BENCH_ablations.json): at an
    // equal IPU count, coarser limbs need fewer cycles for the largest
    // monolithic product.
    let cycles: Vec<u64> = [8, 16, 32, 64]
        .into_iter()
        .map(|limb_bits| {
            let config = ArchConfig {
                limb_bits,
                ..ArchConfig::default()
            };
            Device::new(config).mul_cycles(35_904, 35_904)
        })
        .collect();
    assert!(cycles.windows(2).all(|w| w[0] > w[1]), "{cycles:?}");
}

#[test]
fn mpapca_thresholds_beat_skipping_the_toom_rungs() {
    // The MPApca threshold ablation (`mpapca_thresholds`): at 200 000 bits
    // the default table runs Toom-3 over device products, far cheaper
    // than jumping from Karatsuba straight to SSA.
    let cycles = |th| {
        Device::new_default()
            .with_thresholds(th)
            .mul_cycles(200_000, 200_000)
    };
    let default = MpapcaThresholds::default();
    let no_toom = MpapcaThresholds {
        toom3: 36_000,
        toom4: 36_001,
        toom6: 36_002,
        ssa: 36_003,
        ..default
    };
    assert!(cycles(default) < cycles(no_toom));
}

#[test]
fn table_iii_headline_numbers() {
    let dev = Device::new_default();
    let cam = dev.mul_cycles(4096, 4096) as f64 * dev.config().cycle_seconds();
    assert!((cam - 1.6e-8).abs() < 1e-12, "Table III device anchor");
    let gpu = cambricon_p_repro::apc_baselines::gpu::amortized_mul_seconds(4096, 100_000).unwrap();
    assert!((gpu / cam - 1.0).abs() < 0.25, "same throughput as V100+CGBN");
    let cpu = cambricon_p_repro::apc_baselines::cpu::mul_seconds(4096);
    let speedup = cpu / cam;
    assert!(
        (60.0..160.0).contains(&speedup),
        "~101x headline speedup, got {speedup}"
    );
}

#[test]
fn energy_model_orders_systems_like_the_paper() {
    // Device beats CPU on both time and energy for a large multiply.
    let dev = Device::new_default();
    let a = Nat::power_of_two(20_000) - Nat::one();
    let _ = dev.mul(&a, &a);
    let dev_j = dev.energy_joules();
    let cpu_s = cambricon_p_repro::apc_baselines::cpu::mul_seconds(20_000);
    let cpu_j = cambricon_p_repro::apc_baselines::cpu::energy_joules(cpu_s);
    assert!(cpu_j / dev_j > 10.0, "energy benefit should be large");
}
