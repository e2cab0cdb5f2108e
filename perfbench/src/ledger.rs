//! The serial layer ledger: one job at a time, the same jobs at every
//! layer, so a layer's cost is a subtraction of two means rather than a
//! guess.

use crate::spans::{SpanId, SpanLog};
use crate::stats;

/// Passes over the ledger's jobs; each layer reports the median of its
/// per-pass means.
pub const PASSES: usize = 9;

/// How far the sum of the ledger's parts may fall short of the wall time
/// a serial client observes per job, as a share of the latter: the gap
/// is the benchmark's own work between calls.
pub const TOLERANCE: f64 = 0.05;

/// Whether per-job parts summing to `parts` µs account for a serial
/// client's observed mean of `client_mean` µs per job, within
/// [`TOLERANCE`].
pub fn reconciles(parts: f64, client_mean: f64) -> bool {
    parts > 0.0 && (client_mean - parts).abs() <= TOLERANCE * client_mean
}

/// One layer's answer to one job: whether it matched the oracle, and the
/// span around the call.
pub type Call = (bool, SpanId);

/// What a replay measured.
#[derive(Debug)]
pub struct Replay {
    /// Per layer, the median over passes of the mean µs per job, summed
    /// from the spans around each call.
    pub layer_us: Vec<f64>,
    /// Per layer, the median over passes of the wall time of its blocks
    /// per job: what a client issuing the block's jobs back to back sees,
    /// measured apart from the per-call spans.
    pub wall_us: Vec<f64>,
    /// Layer calls made, and how many answered wrongly.
    pub calls: u64,
    pub mismatches: u64,
    /// The benchmark's own time between layer calls, µs per call.
    pub glue_us: f64,
}

/// Replays pass `p`'s jobs, `passes[p]`, at every layer in turn.
///
/// Jobs go in blocks of `block`: a block visits the layers one after
/// another, each layer running the whole block. A layer's code stays warm
/// across its block, while a change in host speed falls on all layers of
/// the block alike. `call(spans, layer, job, parent, request)` runs one
/// job at one layer inside a span it opens under `parent`.
pub fn replay<J>(
    spans: &mut SpanLog,
    passes: &[&[J]],
    block: usize,
    layers: &[&'static str],
    mut call: impl FnMut(&mut SpanLog, usize, &J, Option<SpanId>, u64) -> Call,
) -> Replay {
    let mut pass_means: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut pass_walls: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let (mut calls, mut mismatches) = (0u64, 0u64);
    let mut block_spans = Vec::new();
    for (pass, jobs) in passes.iter().enumerate() {
        let pass_span = spans.open("ledger.pass", None, pass as u64);
        let mut totals_ns = vec![0u64; layers.len()];
        let mut walls_ns = vec![0u64; layers.len()];
        for (b, chunk) in jobs.chunks(block.max(1)).enumerate() {
            for (layer, &name) in layers.iter().enumerate() {
                let layer_span = spans.open(name, Some(pass_span), pass as u64);
                block_spans.push(layer_span);
                for (k, job) in chunk.iter().enumerate() {
                    let request = (pass * jobs.len() + b * block + k) as u64 + 1;
                    let (ok, id) = call(spans, layer, job, Some(layer_span), request);
                    calls += 1;
                    mismatches += u64::from(!ok);
                    totals_ns[layer] += spans.get(id).duration_ns();
                }
                spans.close(layer_span);
                walls_ns[layer] += spans.get(layer_span).duration_ns();
            }
        }
        spans.close(pass_span);
        let per_job = |ns: u64| ns as f64 / 1e3 / jobs.len().max(1) as f64;
        for (means, total) in pass_means.iter_mut().zip(totals_ns) {
            means.push(per_job(total));
        }
        for (walls, wall) in pass_walls.iter_mut().zip(walls_ns) {
            walls.push(per_job(wall));
        }
    }
    let self_ns = spans.self_times_ns();
    let glue_ns: u64 = block_spans.iter().map(|&id| self_ns[id]).sum();
    Replay {
        layer_us: pass_means.iter().map(|v| stats::median(v)).collect(),
        wall_us: pass_walls.iter().map(|v| stats::median(v)).collect(),
        calls,
        mismatches,
        glue_us: glue_ns as f64 / 1e3 / calls.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_must_account_for_the_client_mean() {
        assert!(reconciles(98.0, 100.0));
        assert!(!reconciles(90.0, 100.0));
        assert!(!reconciles(110.0, 100.0));
        assert!(!reconciles(0.0, 0.0));
    }

    #[test]
    fn block_walls_cover_the_call_spans() {
        let mut spans = SpanLog::default();
        let jobs: Vec<u64> = (0..6).collect();
        let replay = replay(
            &mut spans,
            &[&jobs, &jobs, &jobs],
            4,
            &["layer.a", "layer.b"],
            |spans, layer, job, parent, req| {
                let (v, id) = spans.time("call", parent, req, || {
                    std::hint::black_box((0..(layer as u64 + 1) * 2000).sum::<u64>())
                });
                (v >= *job, id)
            },
        );
        assert_eq!((replay.calls, replay.mismatches), (36, 0));
        for (calls, wall) in replay.layer_us.iter().zip(&replay.wall_us) {
            assert!(calls <= wall);
        }
    }
}
