//! Generic Toom-Cook k-way multiplication (used for Toom-4 and Toom-6,
//! O(n^1.404) and O(n^1.338) in Table I).
//!
//! Operands are split into `k` parts, evaluated at the 2k−1 points
//! {0, ±1, ±2, …, ∞}, multiplied pointwise at size n/k, and interpolated
//! back. Interpolation uses the exact rational inverse of the Vandermonde
//! matrix (computed once per k and cached); every division is exact by
//! construction, so the whole pipeline stays in integers.

use super::{mul_recursive, MulAlgorithm, Thresholds};
use crate::int::Int;
use crate::nat::Nat;
use std::sync::OnceLock;

/// Toom-k multiplication of `a * b` for `k` in {4, 6}.
pub fn mul(a: &Nat, b: &Nat, k: usize, algorithm: MulAlgorithm, th: &Thresholds) -> Nat {
    assert!(k == 4 || k == 6, "only Toom-4 and Toom-6 are instantiated");
    let n = a.limb_len().max(b.limb_len());
    debug_assert!(n >= k);
    let part_bits = n.div_ceil(k) as u64 * 64;

    let xs = split(a, part_bits, k);
    let ys = split(b, part_bits, k);

    let points = point_list(k);
    // The 2k−1 pointwise products are independent; dispatch them across
    // threads when the `parallel` feature is enabled. `map_indexed`
    // returns them in point order, so interpolation below is unchanged.
    let products: Vec<Int> = crate::par::map_indexed(
        points.len(),
        crate::par::parallel_enabled(),
        &|i| {
            let (px, py) = (evaluate(&xs, points[i]), evaluate(&ys, points[i]));
            Int::from_sign_magnitude(
                px.is_negative() != py.is_negative(),
                mul_recursive(px.magnitude(), py.magnitude(), algorithm, th),
            )
        },
    );

    let inv = inverse_for(k);
    let m = 2 * k - 1;
    let mut acc = Int::zero();
    #[expect(
        clippy::needless_range_loop,
        reason = "i is the coefficient index: it picks the inverse row and the part shift"
    )]
    for i in 0..m {
        let row = &inv[i];
        let d = row_lcm(row);
        let mut ci = Int::zero();
        for (j, r) in row.iter().enumerate() {
            if r.num == 0 {
                continue;
            }
            let scale = r.num * (d / r.den);
            ci += &products[j].mul_i128(scale);
        }
        #[expect(
            clippy::expect_used,
            reason = "lcm of Toom denominators for k <= 8 fits in u64"
        )]
        let ci = ci.div_exact_u64(u64::try_from(d).expect("interpolation lcm fits in u64"));
        acc += &ci.shl_bits(part_bits * i as u64);
    }
    acc.into_nat()
}

/// Evaluation point: finite value or infinity (leading coefficient).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Point {
    Finite(i128),
    Infinity,
}

fn point_list(k: usize) -> Vec<Point> {
    let m = 2 * k - 1;
    let mut pts = vec![Point::Finite(0)];
    let mut v = 1i128;
    while pts.len() < m - 1 {
        pts.push(Point::Finite(v));
        if pts.len() < m - 1 {
            pts.push(Point::Finite(-v));
        }
        v += 1;
    }
    pts.push(Point::Infinity);
    pts
}

fn split(x: &Nat, part_bits: u64, k: usize) -> Vec<Nat> {
    let mut parts = Vec::with_capacity(k);
    let mut rest = x.clone();
    for _ in 0..k - 1 {
        let (lo, hi) = rest.split_at_bit(part_bits);
        parts.push(lo);
        rest = hi;
    }
    parts.push(rest);
    parts
}

fn evaluate(parts: &[Nat], pt: Point) -> Int {
    match pt {
        #[expect(
            clippy::expect_used,
            reason = "split() always returns k >= 1 parts"
        )]
        Point::Infinity => Int::from_nat(parts.last().expect("k >= 1 parts").clone()),
        Point::Finite(0) => Int::from_nat(parts[0].clone()),
        Point::Finite(a) => {
            // Horner evaluation from the top coefficient down.
            #[expect(
                clippy::expect_used,
                reason = "split() always returns k >= 1 parts"
            )]
            let mut acc = Int::from_nat(parts.last().expect("k >= 1 parts").clone());
            for part in parts.iter().rev().skip(1) {
                acc = acc.mul_i128(a);
                acc += &Int::from_nat(part.clone());
            }
            acc
        }
    }
}

/// A reduced rational with i128 components; plenty of headroom for the
/// Vandermonde inverses of Toom-4/6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    num: i128,
    den: i128, // always > 0
}

impl Rat {
    fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd_i128(num.unsigned_abs(), den.unsigned_abs()) as i128;
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    fn from_int(v: i128) -> Self {
        Rat { num: v, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the inverse-identity test adds rationals")
    )]
    fn add(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den + o.num * self.den, self.den * o.den)
    }

    fn sub(self, o: Rat) -> Rat {
        Rat::new(self.num * o.den - o.num * self.den, self.den * o.den)
    }

    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.num * o.num, self.den * o.den)
    }

    fn div(self, o: Rat) -> Rat {
        assert!(o.num != 0, "division by zero rational");
        Rat::new(self.num * o.den, self.den * o.num)
    }
}

fn gcd_i128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b.max(1);
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

fn lcm_i128(a: i128, b: i128) -> i128 {
    (a / gcd_i128(a.unsigned_abs(), b.unsigned_abs()) as i128) * b
}

fn row_lcm(row: &[Rat]) -> i128 {
    row.iter().fold(1i128, |acc, r| lcm_i128(acc, r.den))
}

/// Inverts the (2k−1)×(2k−1) evaluation matrix by Gauss-Jordan over exact
/// rationals. The result is cached per k.
fn inverse_for(k: usize) -> &'static Vec<Vec<Rat>> {
    static INV4: OnceLock<Vec<Vec<Rat>>> = OnceLock::new();
    static INV6: OnceLock<Vec<Vec<Rat>>> = OnceLock::new();
    let cell = match k {
        4 => &INV4,
        6 => &INV6,
        _ => unreachable!("guarded in mul"),
    };
    cell.get_or_init(|| {
        let points = point_list(k);
        let m = 2 * k - 1;
        let mut aug: Vec<Vec<Rat>> = Vec::with_capacity(m);
        for (r, &pt) in points.iter().enumerate() {
            let mut row = vec![Rat::from_int(0); 2 * m];
            match pt {
                Point::Infinity => row[m - 1] = Rat::from_int(1),
                Point::Finite(a) => {
                    let mut pw = 1i128;
                    for item in row.iter_mut().take(m) {
                        *item = Rat::from_int(pw);
                        pw *= a;
                    }
                }
            }
            row[m + r] = Rat::from_int(1);
            aug.push(row);
        }
        // Gauss-Jordan elimination with partial (nonzero) pivoting.
        for col in 0..m {
            #[expect(
                clippy::expect_used,
                reason = "Vandermonde matrix at distinct points is nonsingular"
            )]
            let pivot_row = (col..m)
                .find(|&r| !aug[r][col].is_zero())
                .expect("evaluation matrix is nonsingular");
            aug.swap(col, pivot_row);
            let pivot = aug[col][col];
            for item in aug[col].iter_mut() {
                *item = item.div(pivot);
            }
            for r in 0..m {
                if r != col && !aug[r][col].is_zero() {
                    let factor = aug[r][col];
                    #[expect(
                        clippy::needless_range_loop,
                        reason = "row r is updated from row col of the same matrix, so one borrow cannot iterate both"
                    )]
                    for c in 0..2 * m {
                        let delta = factor.mul(aug[col][c]);
                        aug[r][c] = aug[r][c].sub(delta);
                    }
                }
            }
        }
        aug.into_iter().map(|row| row[m..].to_vec()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::mul::schoolbook;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x ^= x << 7;
                x ^= x >> 9;
                x
            })
            .collect();
        Nat::from_limbs(v)
    }

    #[test]
    fn toom4_matches_schoolbook() {
        for n in [4usize, 8, 15, 40, 120] {
            let a = pattern(n, 1);
            let b = pattern(n, 2);
            let got = mul(&a, &b, 4, MulAlgorithm::Toom4, &Thresholds::default());
            assert_eq!(got, schoolbook::mul(&a, &b), "n={n}");
        }
    }

    #[test]
    fn toom6_matches_schoolbook() {
        for n in [6usize, 12, 25, 60, 144] {
            let a = pattern(n, 3);
            let b = pattern(n, 4);
            let got = mul(&a, &b, 6, MulAlgorithm::Toom6, &Thresholds::default());
            assert_eq!(got, schoolbook::mul(&a, &b), "n={n}");
        }
    }

    #[test]
    fn toom_handles_zero_parts() {
        let a = Nat::power_of_two(64 * 24) + Nat::one(); // only ends populated
        let b = pattern(24, 9);
        let got = mul(&a, &b, 4, MulAlgorithm::Toom4, &Thresholds::default());
        assert_eq!(got, schoolbook::mul(&a, &b));
    }

    #[test]
    fn inverse_rows_reconstruct_identity() {
        for k in [4usize, 6] {
            let inv = inverse_for(k);
            let points = point_list(k);
            let m = 2 * k - 1;
            // A * inv == I
            #[expect(
                clippy::needless_range_loop,
                reason = "j and l are matrix indices into inv, as in the A * inv product"
            )]
            for (i, &pt) in points.iter().enumerate() {
                for j in 0..m {
                    let mut acc = Rat::from_int(0);
                    for l in 0..m {
                        let a_il = match pt {
                            Point::Infinity => {
                                Rat::from_int(if l == m - 1 { 1 } else { 0 })
                            }
                            Point::Finite(x) => Rat::from_int(x.pow(l as u32)),
                        };
                        acc = acc.add(a_il.mul(inv[l][j]));
                    }
                    let expect = Rat::from_int(i128::from(i == j));
                    assert_eq!(acc, expect, "k={k} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn rational_reduction() {
        let r = Rat::new(6, -4);
        assert_eq!(r, Rat { num: -3, den: 2 });
        assert_eq!(Rat::new(0, 5), Rat { num: 0, den: 1 });
    }
}
