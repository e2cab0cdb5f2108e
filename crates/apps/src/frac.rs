//! *Frac*: Mandelbrot deep-zoom rendering with perturbation theory
//! (Heiland-Allen's technique, the paper's reference \[32\]).
//!
//! One **reference orbit** is iterated at arbitrary precision:
//! `Z_{n+1} = Z_n² + C`. Each pixel then iterates only its low-precision
//! *delta* `δ_{n+1} = 2·Z_n·δ_n + δ_n² + δc` in `f64`, reusing the
//! high-precision orbit. The multiprecision squaring of the reference
//! orbit is the APC kernel the accelerator speeds up.

use crate::backend::Session;
use crate::complex::{FixedComplex, FixedCtx};

/// A rendered escape-time image.
#[derive(Debug, Clone)]
pub struct FracImage {
    /// Escape iteration per pixel (row-major), `max_iter` = did not escape.
    pub iterations: Vec<u32>,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Iteration cap.
    pub max_iter: u32,
}

/// Renders a Mandelbrot patch centered on `(center_re, center_im)` with
/// half-width `radius`, using a `precision_bits` reference orbit and f64
/// pixel deltas.
///
/// The center coordinates are given as strings of the form "-0.7436439…"
/// so that deep-zoom centers beyond f64 precision can be expressed; plain
/// f64-range values work too.
pub fn render_perturbation(
    center_re: f64,
    center_im: f64,
    radius: f64,
    width: usize,
    height: usize,
    max_iter: u32,
    precision_bits: u64,
    session: &Session,
) -> FracImage {
    let ctx = FixedCtx::new(precision_bits);
    let c = ctx.cfrom_f64(center_re, center_im);
    let orbit = reference_orbit(&ctx, session, &c, max_iter);

    let mut iterations = vec![max_iter; width * height];
    for py in 0..height {
        for px in 0..width {
            let dc_re = (px as f64 / (width - 1).max(1) as f64 * 2.0 - 1.0) * radius;
            let dc_im = (py as f64 / (height - 1).max(1) as f64 * 2.0 - 1.0) * radius;
            iterations[py * width + px] =
                pixel_iterations(&orbit, center_re, center_im, dc_re, dc_im, max_iter);
        }
    }
    FracImage {
        iterations,
        width,
        height,
        max_iter,
    }
}

/// Renders around a center given as decimal strings, so deep-zoom targets
/// beyond f64 precision (the whole point of perturbation rendering) can be
/// addressed exactly.
///
/// # Panics
///
/// Panics if a coordinate string is malformed.
#[allow(clippy::too_many_arguments)]
pub fn render_perturbation_str(
    center_re: &str,
    center_im: &str,
    radius: f64,
    width: usize,
    height: usize,
    max_iter: u32,
    precision_bits: u64,
    session: &Session,
) -> FracImage {
    let ctx = FixedCtx::new(precision_bits);
    let c = FixedComplex {
        // apc-lint: allow(L2) -- caller-facing precondition documented on render_tile
        re: ctx.from_decimal_str(center_re).expect("valid real coordinate"),
        // apc-lint: allow(L2) -- caller-facing precondition documented on render_tile
        im: ctx.from_decimal_str(center_im).expect("valid imaginary coordinate"),
    };
    let orbit = reference_orbit(&ctx, session, &c, max_iter);
    let (cr, ci) = (ctx.to_f64(&c.re), ctx.to_f64(&c.im));
    let mut iterations = vec![max_iter; width * height];
    for py in 0..height {
        for px in 0..width {
            let dc_re = (px as f64 / (width - 1).max(1) as f64 * 2.0 - 1.0) * radius;
            let dc_im = (py as f64 / (height - 1).max(1) as f64 * 2.0 - 1.0) * radius;
            iterations[py * width + px] =
                pixel_iterations(&orbit, cr, ci, dc_re, dc_im, max_iter);
        }
    }
    FracImage {
        iterations,
        width,
        height,
        max_iter,
    }
}

/// The high-precision reference orbit, downsampled to f64 pairs for the
/// per-pixel delta iteration. Stops early if the reference escapes.
pub fn reference_orbit(
    ctx: &FixedCtx,
    session: &Session,
    c: &FixedComplex,
    max_iter: u32,
) -> Vec<(f64, f64)> {
    let mut orbit = Vec::with_capacity(max_iter as usize + 1);
    let mut z = ctx.czero();
    for _ in 0..=max_iter {
        let zr = ctx.to_f64(&z.re);
        let zi = ctx.to_f64(&z.im);
        orbit.push((zr, zi));
        if zr * zr + zi * zi > 4.0 {
            break;
        }
        // Z ← Z² + C at full precision (the APC kernel).
        z = ctx.cadd(session, &ctx.cmul(session, &z, &z), c);
    }
    orbit
}

/// Iterates one pixel's delta orbit against the reference. If the
/// reference escapes before the pixel does, the pixel *rebases*: it
/// continues from its current full position `w = Z + δ` with a direct
/// orbit (the standard fix for escaped references in perturbation
/// renderers; production code rebases onto a secondary reference, which
/// degenerates to direct iteration at our image scales).
fn pixel_iterations(
    orbit: &[(f64, f64)],
    c_re: f64,
    c_im: f64,
    dc_re: f64,
    dc_im: f64,
    max_iter: u32,
) -> u32 {
    let mut dr = 0.0f64;
    let mut di = 0.0f64;
    let reference_escaped = orbit.len() < max_iter as usize + 1;
    for n in 0..max_iter as usize {
        let (zr, zi) = orbit[n.min(orbit.len().saturating_sub(1))];
        // Full position: w = Z + δ.
        let wr = zr + dr;
        let wi = zi + di;
        if wr * wr + wi * wi > 4.0 {
            return n as u32;
        }
        // Reference about to end without this pixel escaping: rebase to a
        // direct orbit from w (both are at step n here).
        if reference_escaped && n + 1 >= orbit.len() {
            return direct_from(wr, wi, c_re + dc_re, c_im + dc_im, n as u32, max_iter);
        }
        // δ ← 2·Z·δ + δ² + δc
        let new_dr = 2.0 * (zr * dr - zi * di) + (dr * dr - di * di) + dc_re;
        let new_di = 2.0 * (zr * di + zi * dr) + 2.0 * dr * di + dc_im;
        dr = new_dr;
        di = new_di;
    }
    max_iter
}

/// Continues a direct escape-time orbit from position (wr, wi) at
/// iteration `start`.
fn direct_from(mut wr: f64, mut wi: f64, c_re: f64, c_im: f64, start: u32, max_iter: u32) -> u32 {
    for n in start..max_iter {
        if wr * wr + wi * wi > 4.0 {
            return n;
        }
        let t = wr * wr - wi * wi + c_re;
        wi = 2.0 * wr * wi + c_im;
        wr = t;
    }
    max_iter
}

/// Direct f64 escape-time iteration (the oracle for shallow zooms).
pub fn direct_f64(c_re: f64, c_im: f64, max_iter: u32) -> u32 {
    let mut zr = 0.0f64;
    let mut zi = 0.0f64;
    for n in 0..max_iter {
        if zr * zr + zi * zi > 4.0 {
            return n;
        }
        let t = zr * zr - zi * zi + c_re;
        zi = 2.0 * zr * zi + c_im;
        zr = t;
    }
    max_iter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_orbit_matches_f64_iteration() {
        let s = Session::software();
        let ctx = FixedCtx::new(192);
        let c = ctx.cfrom_f64(-0.12, 0.75);
        let orbit = reference_orbit(&ctx, &s, &c, 20);
        // Replay in f64 and compare early iterates (before chaos grows).
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        for (n, &(or, oi)) in orbit.iter().take(12).enumerate() {
            assert!(
                (zr - or).abs() < 1e-9 && (zi - oi).abs() < 1e-9,
                "iterate {n}: ({zr},{zi}) vs ({or},{oi})"
            );
            let t = zr * zr - zi * zi - 0.12;
            zi = 2.0 * zr * zi + 0.75;
            zr = t;
        }
    }

    #[test]
    fn interior_point_never_escapes() {
        let s = Session::software();
        let ctx = FixedCtx::new(128);
        let c = ctx.cfrom_f64(-1.0, 0.0); // period-2 bulb center
        let orbit = reference_orbit(&ctx, &s, &c, 50);
        assert_eq!(orbit.len(), 51, "interior orbit runs to the cap");
    }

    #[test]
    fn perturbation_agrees_with_direct_at_shallow_zoom() {
        let s = Session::software();
        let img = render_perturbation(-0.5, 0.0, 0.02, 9, 9, 64, 128, &s);
        let mut mismatches = 0;
        for py in 0..9 {
            for px in 0..9 {
                let cr = -0.5 + (px as f64 / 8.0 * 2.0 - 1.0) * 0.02;
                let ci = (py as f64 / 8.0 * 2.0 - 1.0) * 0.02;
                let direct = direct_f64(cr, ci, 64);
                let pert = img.iterations[py * 9 + px];
                if direct.abs_diff(pert) > 1 {
                    mismatches += 1;
                }
            }
        }
        assert!(mismatches <= 4, "{mismatches}/81 pixels disagree");
    }

    #[test]
    fn escape_counts_have_structure() {
        let s = Session::software();
        // A patch straddling the cardioid boundary, centered on an
        // *interior* reference point (this renderer does not rebase
        // escaped references): both escaped and interior pixels appear.
        let img = render_perturbation(-0.5, 0.0, 0.8, 16, 16, 100, 128, &s);
        let interior = img.iterations.iter().filter(|&&i| i == 100).count();
        let escaped = img.iterations.iter().filter(|&&i| i < 100).count();
        assert!(interior > 0, "some pixels inside the set");
        assert!(escaped > 0, "some pixels escape");
    }

    #[test]
    fn escaped_reference_rebases_instead_of_truncating() {
        // Center c = (0.26, 0): outside the cardioid, the reference
        // escapes; pixels to its left are interior and must still reach
        // max_iter via rebasing.
        let s = Session::software();
        let img = render_perturbation(0.26, 0.0, 0.15, 9, 9, 200, 128, &s);
        let mut mismatches = 0;
        for py in 0..9 {
            for px in 0..9 {
                let cr = 0.26 + (px as f64 / 8.0 * 2.0 - 1.0) * 0.15;
                let ci = (py as f64 / 8.0 * 2.0 - 1.0) * 0.15;
                let direct = direct_f64(cr, ci, 200);
                let pert = img.iterations[py * 9 + px];
                if direct.abs_diff(pert) > 2 {
                    mismatches += 1;
                }
            }
        }
        assert!(mismatches <= 4, "{mismatches}/81 pixels disagree after rebasing");
        // At least one interior pixel reaches the cap.
        assert!(img.iterations.iter().any(|&i| i == 200));
    }

    #[test]
    fn string_centers_match_f64_centers() {
        let s = Session::software();
        let a = render_perturbation(-0.5, 0.25, 0.1, 6, 6, 50, 128, &s);
        let b = render_perturbation_str("-0.5", "0.25", 0.1, 6, 6, 50, 128, &s);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn deep_zoom_center_beyond_f64() {
        // A 40-significant-digit center parses exactly; the reference
        // orbit at that precision distinguishes what f64 cannot.
        let ctx = FixedCtx::new(256);
        let a = ctx
            .from_decimal_str("-0.7436438870371587047521915061354430")
            .unwrap();
        let b = ctx
            .from_decimal_str("-0.7436438870371587047521915061354431")
            .unwrap();
        assert_ne!(a, b, "fixed point resolves beyond f64 epsilon");
        assert!((ctx.to_f64(&a) - ctx.to_f64(&b)).abs() < 1e-16);
    }

    #[test]
    fn device_backend_renders_identically() {
        let sw = Session::software();
        let hw = Session::cambricon_p();
        let a = render_perturbation(-0.6, 0.4, 0.05, 6, 6, 40, 128, &sw);
        let b = render_perturbation(-0.6, 0.4, 0.05, 6, 6, 40, 128, &hw);
        assert_eq!(a.iterations, b.iterations);
        assert!(hw.report().device_seconds > 0.0);
    }
}
