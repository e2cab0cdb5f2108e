//! The design ablations DESIGN.md cites, written to `BENCH_ablations.json`
//! at the repo root.
//!
//! Every row carries three labels besides its own: `section`, `path` (the
//! function that produced the row) and `engine` (what computed it:
//! `apc-bignum`, `nat-model` for the Nat-level functional units, the
//! structural kernel engine `sliced64`/`scalar` that
//! `Accelerator::effective_backend` picked, or `closed-form`).
//!
//! Host wall time is `seconds`, taken in paired rounds
//! (`apc_bench::sample_rounds`): every compared path runs once per round,
//! in an order that rotates from round to round, and `ratio` is the
//! median and quartiles of the per-round time ratio, so a drift in the
//! host's speed cancels. Modeled quantities are never timed; they have
//! their own names: `cycles` (device cycles at 2 GHz), `bops` (§IV-B bit
//! operations), `lambda` and `intermediate_bytes`.
//!
//! - `karatsuba`, `toom3`, `toom4`, `toom6`, `ssa`: the apc-bignum
//!   multiply ladder. Each section times one level of its rung over the
//!   committed ladder against the rung `Auto` runs there when this rung's
//!   band is taken out (`ratio` = rung / fallback). It runs on one host
//!   thread against `Thresholds::SEQUENTIAL` and, in a build with the
//!   `parallel` feature on a pool of more than one thread, again with
//!   every fork taken against `Thresholds::PARALLEL` (label `threads`).
//!   A rung clearly wins at a size when the third quartile of its
//!   per-round ratio is below 1 and clearly loses when the first quartile
//!   is above 1; anything else is a tie. `crossover_limbs` is the
//!   smallest swept size from which it clearly wins at every larger
//!   swept size, `clear_loss_limbs` the largest swept size where it
//!   clearly loses. `committed_limbs` is the threshold the run swept
//!   against and `supported_limbs` the one the run supports: the
//!   committed start if the rung only ties around it (no clear loss at
//!   or above it, no crossover below it), else the crossover. Each band
//!   ends at the next band's start, so a rung that never wins, or that
//!   the next one overtakes, has an empty band. A rung kept out of
//!   `Auto` has neither gauge.
//! - `bips`: BIPS (Converter + IPU) against the plain bit-serial MAC with
//!   and without zero skipping, on the same 4 × 32-bit inner product.
//! - `carry`: the carry-select gather against the ripple `gather_reference`.
//! - `q`: BIPS at q = 2, 4 and 8, with the §IV-B λ(q).
//! - `limb_width`: the structural multiply and the cycle and intermediate
//!   models at L = 8, 16, 32 and 64.
//! - `mpapca_thresholds`: `Device::mul_cycles` under the default MPApca
//!   table against no Toom rung at 200 000 bits (Toom-3 by default) and
//!   against SSA in place of Toom-6 at 2 000 000 bits.
//!
//! In the four model sections `ratio` is the time of the row's path over
//! the design choice's (BIPS, carry-select, q = 4, L = 32). They run on
//! one host thread in either build.
//!
//! ```text
//! APC_THREADS=2 cargo run --release -p apc-bench --features parallel --bin bench_ablations
//! ```

use apc_bench::{fmt_seconds, header, sample_rounds, Report, BENCH_FLOOR_SECONDS};
use apc_bignum::nat::mul::{karatsuba_intermediate_bytes, mul_dispatch, Thresholds};
use apc_bignum::{par, MulAlgorithm, Nat};
use cambricon_p::accelerator::Accelerator;
use cambricon_p::bops::lambda;
use cambricon_p::converter::generate_patterns;
use cambricon_p::gu;
use cambricon_p::ipu::{bit_indexed_inner_product, plain_bit_serial_inner_product};
use cambricon_p::mpapca::MpapcaThresholds;
use cambricon_p::{ArchConfig, Device};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::slice;

type Labels = Vec<(&'static str, String)>;

/// The labels of one row: its section, path and engine, then the point.
fn row(section: &str, path: &str, engine: &str, point: &[(&'static str, String)]) -> Labels {
    let mut labels = vec![
        ("section", section.to_string()),
        ("path", path.to_string()),
        ("engine", engine.to_string()),
    ];
    labels.extend_from_slice(point);
    labels
}

fn main() {
    let mut report = Report::new("ablations", "per row: see the path and engine labels");
    ladder(&mut report);
    par::sequential(|| {
        bips(&mut report);
        carry(&mut report);
        q_sweep(&mut report);
        limb_width(&mut report);
        mpapca_thresholds(&mut report);
    });
    report.write();
}

/// The rungs of the apc-bignum ladder in order; rung `r ≥ 1` starts at
/// `starts(..)[r - 1]` limbs.
const RUNGS: [&str; 6] = ["schoolbook", "karatsuba", "toom3", "toom4", "toom6", "ssa"];

fn starts(th: &Thresholds) -> [usize; 5] {
    [th.karatsuba, th.toom3, th.toom4, th.toom6, th.ssa]
}

fn thresholds([karatsuba, toom3, toom4, toom6, ssa]: [usize; 5]) -> Thresholds {
    Thresholds {
        karatsuba,
        toom3,
        toom4,
        toom6,
        ssa,
    }
}

/// Thresholds under which `Auto` runs `rung` at the top of an `n`-limb
/// product and the `base` ladder on every smaller product below it.
fn top_level(base: &Thresholds, rung: usize, n: usize) -> Thresholds {
    let mut t = starts(base);
    for (j, start) in t.iter_mut().enumerate() {
        *start = if j < rung {
            (*start).min(n)
        } else {
            (*start).max(n + 1)
        };
    }
    thresholds(t)
}

/// The rung `Auto` runs at the top of an `n`-limb product once `rung`'s
/// band is taken out: the highest rung below it whose band in `base` is
/// not empty and starts at or below `n`.
fn fallback(base: &Thresholds, rung: usize, n: usize) -> usize {
    let t = starts(base);
    (1..rung)
        .rev()
        .find(|&s| t[s - 1] <= n && t[s - 1] < t[s])
        .unwrap_or(0)
}

/// Crossover sweeps of the upper rungs, each against its fallback: on
/// one host thread, and with the `parallel` feature on the whole pool
/// as well. The pool sweep starts at Toom-3: schoolbook and Karatsuba
/// never fork, and no product of the Karatsuba sweep reaches a rung
/// that does, so both tables share `karatsuba`.
fn ladder(report: &mut Report) {
    par::sequential(|| ladder_sweep(report, 1, &Thresholds::SEQUENTIAL, 1));
    let threads = par::dispatch_width(true);
    if threads > 1 {
        ladder_sweep(report, threads, &Thresholds::PARALLEL, 2);
    } else {
        println!(
            "\nno parallel ladder sweep: build with `--features parallel` on more than one thread"
        );
    }
}

/// One sweep of the rungs from `first` up over the `base` ladder, with
/// every fork of the multiply spread over `threads` host threads.
fn ladder_sweep(report: &mut Report, threads: usize, base: &Thresholds, first: usize) {
    const PATH: &str = "apc_bignum::nat::mul::mul_dispatch(Auto)";
    let sweeps: [(usize, &[usize]); 5] = [
        (1, &[16, 24, 32, 40, 44, 48, 56, 64, 80, 96]),
        (2, &[64, 128, 256, 384, 768, 1536, 3072, 6144]),
        (3, &[256, 384, 512, 768, 1024, 1536, 3072, 6144, 12288]),
        (4, &[1536, 3072, 6144, 12288, 24576]),
        (5, &[6144, 12288, 24576]),
    ];
    let committed = starts(base);
    let mut supported = [usize::MAX; 5];
    supported[..first - 1].copy_from_slice(&committed[..first - 1]);
    let threads_label = ("threads", threads.to_string());
    let section = |name: &str| row(name, PATH, "apc-bignum", slice::from_ref(&threads_label));
    let mut rng = StdRng::seed_from_u64(27);
    for (rung, limbs) in sweeps.into_iter().filter(|&(rung, _)| rung >= first) {
        let name = RUNGS[rung];
        header(&format!(
            "{name} over the committed ladder, {threads} host thread(s) (paired rounds; ratio = {name} / fallback)"
        ));
        println!(
            "{:>6} {:>11} {:>12} {:>12} {:>8} {:>17}",
            "limbs",
            "fallback",
            "t(fallback)",
            format!("t({name})"),
            "ratio",
            "[q1, q3]"
        );
        let (mut wins, mut losses) = (Vec::new(), Vec::new());
        for &n in limbs {
            let a = Nat::random_exact_bits(n as u64 * 64, &mut rng);
            let b = Nat::random_exact_bits(n as u64 * 64, &mut rng);
            let lower = fallback(base, rung, n);
            let (lower_th, upper_th) = (top_level(base, lower, n), top_level(base, rung, n));
            let product = mul_dispatch(&a, &b, MulAlgorithm::Auto, &lower_th);
            assert_eq!(mul_dispatch(&a, &b, MulAlgorithm::Auto, &upper_th), product);
            let mut lower_run = || {
                black_box(mul_dispatch(&a, &b, MulAlgorithm::Auto, &lower_th));
            };
            let mut upper_run = || {
                black_box(mul_dispatch(&a, &b, MulAlgorithm::Auto, &upper_th));
            };
            let rounds = sample_rounds(BENCH_FLOOR_SECONDS, &mut [&mut lower_run, &mut upper_run]);
            let ratio = rounds.ratio(1, 0);
            println!(
                "{n:>6} {:>11} {:>12} {:>12} {:>8.3} [{:.3}, {:.3}]",
                RUNGS[lower],
                fmt_seconds(rounds.sample(0).median),
                fmt_seconds(rounds.sample(1).median),
                ratio.median,
                ratio.q1,
                ratio.q3
            );
            let at = |key, value: &str| {
                let mut labels = section(name);
                labels.extend([("limbs", n.to_string()), (key, value.to_string())]);
                labels
            };
            report.sample("seconds", &at("algorithm", RUNGS[lower]), &rounds.sample(0));
            report.sample("seconds", &at("algorithm", RUNGS[rung]), &rounds.sample(1));
            report.sample("ratio", &at("fallback", RUNGS[lower]), &ratio);
            wins.push(ratio.q3 < 1.0);
            losses.push(ratio.q1 > 1.0);
        }
        let crossover = wins
            .iter()
            .rposition(|&win| !win)
            .map_or(Some(limbs[0]), |i| limbs.get(i + 1).copied());
        let lost = losses.iter().rposition(|&loss| loss).map(|i| limbs[i]);
        let committed = committed[rung - 1];
        let limbs_or =
            |n: Option<usize>, none: &str| n.map_or(none.to_string(), |n| format!("{n} limbs"));
        println!(
            "crossover: {}, last clear loss: {}",
            limbs_or(crossover, "none in the sweep"),
            limbs_or(lost, "none"),
        );
        if let Some(n) = crossover {
            report.gauge("crossover_limbs", &section(name), n as f64);
        }
        if let Some(n) = lost {
            report.gauge("clear_loss_limbs", &section(name), n as f64);
        }
        if committed != usize::MAX {
            report.gauge("committed_limbs", &section(name), committed as f64);
        }
        // Ties keep the committed start: it moves to the crossover only
        // if the rung clearly loses at or above it, or clearly wins from
        // a smaller swept size on.
        let crossover = crossover.unwrap_or(usize::MAX);
        let tie = lost.is_none_or(|n| n < committed) && committed <= crossover;
        supported[rung - 1] = if tie { committed } else { crossover };
    }
    // A band starts at its crossover and ends where the next band
    // starts: a rung that never won, or that the next one overtakes, has
    // an empty band.
    for r in (0..supported.len() - 1).rev() {
        supported[r] = supported[r].min(supported[r + 1]);
    }
    for (rung, &start) in supported.iter().enumerate().skip(first - 1) {
        if start != usize::MAX {
            report.gauge("supported_limbs", &section(RUNGS[rung + 1]), start as f64);
        }
    }
    println!();
    println!(
        "thresholds this run supports on {threads} thread(s): {:?} (committed: {:?})",
        thresholds(supported),
        base
    );
}

/// BIPS against the plain bit-serial MAC on one inner product.
fn bips(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(10);
    let xs: Vec<Nat> = (0..4).map(|_| Nat::random_bits(32, &mut rng)).collect();
    let ys: Vec<Nat> = (0..4).map(|_| Nat::random_bits(32, &mut rng)).collect();
    let run_bips = || {
        let patterns = generate_patterns(&xs, 32).expect("4 elements of 32 bits");
        let out = bit_indexed_inner_product(&patterns, &ys, 32);
        (out.value, patterns.tally().total() + out.tally.total())
    };
    let plain = |skip| {
        let out = plain_bit_serial_inner_product(&xs, &ys, 32, skip);
        (out.value, out.tally.total())
    };
    let paths = [
        "cambricon_p::converter::generate_patterns + ipu::bit_indexed_inner_product",
        "cambricon_p::ipu::plain_bit_serial_inner_product(skip_zeros)",
        "cambricon_p::ipu::plain_bit_serial_inner_product(dense)",
    ];
    let outs = [run_bips(), plain(true), plain(false)];
    assert!(outs.iter().all(|(value, _)| *value == outs[0].0));
    let rounds = sample_rounds(
        BENCH_FLOOR_SECONDS,
        &mut [
            &mut || {
                black_box(run_bips());
            },
            &mut || {
                black_box(plain(true));
            },
            &mut || {
                black_box(plain(false));
            },
        ],
    );
    header("BIPS against the plain bit-serial MAC (q = 4, 32-bit elements)");
    println!("{:<76} {:>10} {:>6} {:>7}", "path", "time", "bops", "ratio");
    for (k, path) in paths.iter().enumerate() {
        let time = row("bips", path, "nat-model", &[]);
        let ratio = rounds.ratio(k, 0);
        println!(
            "{path:<76} {:>10} {:>6} {:>7.3}",
            fmt_seconds(rounds.sample(k).median),
            outs[k].1,
            ratio.median
        );
        report.sample("seconds", &time, &rounds.sample(k));
        if k > 0 {
            report.sample("ratio", &time, &ratio);
        }
        report.gauge("bops", &time, outs[k].1 as f64);
    }
}

/// The carry-select gather against the ripple reference.
fn carry(report: &mut Report) {
    const L: u32 = 32;
    let mut rng = StdRng::seed_from_u64(11);
    let partials: Vec<Nat> = (0..32).map(|_| Nat::random_bits(64, &mut rng)).collect();
    let gathered = gu::gather_carry_parallel(&partials, L);
    assert_eq!(gathered.value, gu::gather_reference(&partials, L));
    let rounds = sample_rounds(
        BENCH_FLOOR_SECONDS,
        &mut [
            &mut || {
                black_box(gu::gather_carry_parallel(&partials, L));
            },
            &mut || {
                black_box(gu::gather_reference(&partials, L));
            },
        ],
    );
    let paths = [
        "cambricon_p::gu::gather_carry_parallel",
        "cambricon_p::gu::gather_reference",
    ];
    let output_bits = gathered.value.bit_len();
    let cycles = [
        (
            "cambricon_p::gu::cycles_carry_parallel",
            gu::cycles_carry_parallel(output_bits, L),
        ),
        (
            "cambricon_p::gu::cycles_sequential",
            gu::cycles_sequential(gathered.sections, L),
        ),
    ];
    header("carry-select gather against the ripple reference (32 × 64-bit partials, L = 32)");
    for (k, path) in paths.iter().enumerate() {
        let time = row("carry", path, "nat-model", &[]);
        println!("{path:<42} {:>10}", fmt_seconds(rounds.sample(k).median));
        report.sample("seconds", &time, &rounds.sample(k));
        if k > 0 {
            report.sample("ratio", &time, &rounds.ratio(k, 0));
        }
    }
    for (path, c) in cycles {
        println!("{path:<42} {c:>6} cycles");
        report.gauge("cycles", &row("carry", path, "closed-form", &[]), c as f64);
    }
}

/// BIPS at q = 2, 4 and 8.
fn q_sweep(report: &mut Report) {
    const QS: [u32; 3] = [2, 4, 8];
    let mut rng = StdRng::seed_from_u64(12);
    let inputs: Vec<(Vec<Nat>, Vec<Nat>)> = QS
        .iter()
        .map(|&q| {
            let mut draw = || (0..q).map(|_| Nat::random_bits(32, &mut rng)).collect();
            (draw(), draw())
        })
        .collect();
    let run = |k: usize| {
        let (xs, ys) = &inputs[k];
        let patterns = generate_patterns(xs, 32).expect("at most 8 elements of 32 bits");
        let out = bit_indexed_inner_product(&patterns, ys, 32);
        patterns.tally().total() + out.tally.total()
    };
    let rounds = sample_rounds(
        BENCH_FLOOR_SECONDS,
        &mut [
            &mut || {
                black_box(run(0));
            },
            &mut || {
                black_box(run(1));
            },
            &mut || {
                black_box(run(2));
            },
        ],
    );
    const PATH: &str = "cambricon_p::converter::generate_patterns + ipu::bit_indexed_inner_product";
    header("BIPS across q (32-bit elements; ratio = time / time at q = 4)");
    println!(
        "{:>3} {:>10} {:>7} {:>6} {:>8}",
        "q", "time", "ratio", "bops", "λ(q)"
    );
    for (k, &q) in QS.iter().enumerate() {
        let point = [("q", q.to_string())];
        let time = row("q", PATH, "nat-model", &point);
        let ratio = rounds.ratio(k, 1);
        let (bops, analytic) = (run(k), lambda(q, 32.0));
        println!(
            "{q:>3} {:>10} {:>7.3} {bops:>6} {analytic:>8.4}",
            fmt_seconds(rounds.sample(k).median),
            ratio.median
        );
        report.sample("seconds", &time, &rounds.sample(k));
        if q != 4 {
            report.sample("ratio", &time, &ratio);
        }
        report.gauge("bops", &time, bops as f64);
        let model = row(
            "q",
            "cambricon_p::bops::lambda(p_y = 32)",
            "closed-form",
            &point,
        );
        report.gauge("lambda", &model, analytic);
    }
}

/// The structural multiply, the device cycle models and the CPU-side
/// intermediate volume as the limb width L varies.
fn limb_width(report: &mut Report) {
    const LS: [u32; 4] = [8, 16, 32, 64];
    const BITS: u64 = 2048;
    const MONOLITHIC_BITS: u64 = 35_904;
    const INTERMEDIATE_BITS: u64 = 1_000_000;
    let config = |limb_bits| ArchConfig {
        limb_bits,
        ..ArchConfig::default()
    };
    let accs: Vec<Accelerator> = LS.iter().map(|&l| Accelerator::new(config(l))).collect();
    let mut rng = StdRng::seed_from_u64(13);
    let a = Nat::random_exact_bits(BITS, &mut rng);
    let b = Nat::random_exact_bits(BITS, &mut rng);
    let product = &a * &b;
    let outcomes: Vec<_> = accs.iter().map(|acc| acc.multiply(&a, &b)).collect();
    assert!(outcomes.iter().all(|o| o.product == product));
    let run = |k: usize| {
        black_box(accs[k].multiply(&a, &b));
    };
    let rounds = sample_rounds(
        BENCH_FLOOR_SECONDS,
        &mut [&mut || run(0), &mut || run(1), &mut || run(2), &mut || {
            run(3)
        }],
    );
    header(&format!(
        "limb width L (structural {BITS}-bit multiply; ratio = time / time at L = 32)"
    ));
    println!(
        "{:>3} {:>9} {:>10} {:>7} {:>10} {:>12} {:>16}",
        "L", "engine", "time", "ratio", "cycles", "35904b cyc", "1Mb interm. B"
    );
    for (k, &l) in LS.iter().enumerate() {
        let engine = accs[k].effective_backend().name();
        let point = |bits: u64| [("limb_bits", l.to_string()), ("bits", bits.to_string())];
        let time = row(
            "limb_width",
            "cambricon_p::accelerator::Accelerator::multiply",
            engine,
            &point(BITS),
        );
        let ratio = rounds.ratio(k, 2);
        let monolithic = Device::new(config(l)).mul_cycles(MONOLITHIC_BITS, MONOLITHIC_BITS);
        let intermediates = karatsuba_intermediate_bytes(INTERMEDIATE_BITS, u64::from(l));
        println!(
            "{l:>3} {engine:>9} {:>10} {:>7.3} {:>10} {monolithic:>12} {intermediates:>16}",
            fmt_seconds(rounds.sample(k).median),
            ratio.median,
            outcomes[k].cycles
        );
        report.sample("seconds", &time, &rounds.sample(k));
        if l != 32 {
            report.sample("ratio", &time, &ratio);
        }
        let model = |path: &str, bits| row("limb_width", path, "closed-form", &point(bits));
        report.gauge(
            "cycles",
            &model("cambricon_p::accelerator::Accelerator::schedule", BITS),
            outcomes[k].cycles as f64,
        );
        report.gauge(
            "cycles",
            &model("cambricon_p::mpapca::Device::mul_cycles", MONOLITHIC_BITS),
            monolithic as f64,
        );
        report.gauge(
            "intermediate_bytes",
            &model(
                "apc_bignum::nat::mul::karatsuba_intermediate_bytes",
                INTERMEDIATE_BITS,
            ),
            intermediates as f64,
        );
    }
}

/// MPApca's threshold table against no Toom rung (at 200 000 bits,
/// where the default runs Toom-3) and against SSA in place of Toom-6
/// (at 2 000 000 bits, where the default runs Toom-6).
fn mpapca_thresholds(report: &mut Report) {
    let default = MpapcaThresholds::default();
    let variants = [
        ("default", default, 200_000u64),
        (
            "no_toom",
            MpapcaThresholds {
                toom3: 36_000,
                toom4: 36_001,
                toom6: 36_002,
                ssa: 36_003,
                ..default
            },
            200_000,
        ),
        ("default", default, 2_000_000),
        (
            "early_ssa",
            MpapcaThresholds {
                ssa: default.toom6,
                ..default
            },
            2_000_000,
        ),
    ];
    header("MPApca thresholds");
    println!(
        "{:<10} {:>10} {:>16} {:>10}",
        "variant", "bits", "algorithm", "cycles"
    );
    for (variant, th, bits) in variants {
        let cycles = Device::new(ArchConfig::default())
            .with_thresholds(th)
            .mul_cycles(bits, bits);
        let algorithm = format!("{:?}", th.select(bits));
        println!("{variant:<10} {bits:>10} {algorithm:>16} {cycles:>10}");
        let labels = row(
            "mpapca_thresholds",
            "cambricon_p::mpapca::Device::mul_cycles",
            "closed-form",
            &[
                ("variant", variant.to_string()),
                ("algorithm", algorithm),
                ("bits", bits.to_string()),
            ],
        );
        report.gauge("cycles", &labels, cycles as f64);
    }
}
