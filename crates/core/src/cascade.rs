//! Two-tier inference cascade: a quantized `i16` *screen* model with a
//! calibrated uncertainty band that escalates to the exact fused path.
//!
//! The deployed engine's 10^6 decimal scale honestly declines the
//! `i16×i16→i32` narrow-MAC proof (`|h| ≤ 1` is raw 10^6 ≫ `i16`), so
//! the exact path runs `i32`/FMA MACs. The cascade recovers the narrow
//! tier without touching the verdict contract:
//!
//! 1. [`csd_nn::ScreenWeights`] re-quantizes the trained model at 10^4
//!    (or lower), retrain-calibrating any recurrent row into the proof's
//!    budget, so [`ScreenGates::pack`] *never* declines.
//! 2. The screen recurrence is all-integer — `i16` hidden state, `i64`
//!    cell state, the packed [`PackedGatesI16`] MAC, a vocabulary gate
//!    table at scale², PLAN sigmoid and integer softsign — and its lane
//!    and serial forms are bit-identical by construction (the tests
//!    prove it), so escalation behaves the same at every shard count.
//! 3. A [`CascadeBand`] calibrated on held-out windows splits screen
//!    scores into *confident* (take the screen verdict) and *uncertain*
//!    (escalate to the exact path). Calibration places the band edges at
//!    the observed score extremes of the opposite class plus a safety
//!    margin, so on the calibration corpus the cascade's verdicts agree
//!    with the exact path on **every** window — the screen tier buys
//!    throughput, never correctness.
//!
//! Scores on the band boundary escalate: `decide` returns a verdict only
//! for scores *strictly* outside `[lo, hi]`.

#![deny(clippy::unwrap_used)]

use serde::{Deserialize, Serialize};

use csd_fxp::{div_round_raw, plan_sigmoid_raw, softsign_raw};
use csd_nn::{ModelWeights, ScreenQuantReport, ScreenWeights};

use crate::scratch::ScreenLaneScratch;
use crate::weights::{I16Decline, PackedGatesI16};

/// Serialization version of [`ScreenModel`]; bumped whenever the screen
/// numerics change in a way that invalidates stored calibrations.
pub const SCREEN_MODEL_VERSION: u32 = 1;

/// How the streaming mux runs the cascade
/// ([`StreamMuxConfig::cascade`](crate::StreamMuxConfig::cascade)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CascadeMode {
    /// Single-tier exact path only — the parity anchor. Default.
    #[default]
    Off,
    /// Screen lanes resolve confident windows; uncertain windows
    /// escalate to the exact lane scheduler.
    On,
    /// [`CascadeMode::On`] plus a shadow exact classification of every
    /// screen-resolved window; disagreements are counted in
    /// `MuxStats::cascade_flips` (the screen verdict is still emitted,
    /// so throughput shape matches `On`). A validation harness, not a
    /// production mode.
    Verify,
}

impl CascadeMode {
    /// Whether the screen tier runs at all.
    pub fn screening(self) -> bool {
        !matches!(self, Self::Off)
    }
}

/// The calibrated uncertainty band over screen scores (raw at `scale`,
/// the screen tier's probability scale: `score/scale ∈ [0, 1]`).
///
/// Scores strictly below `lo` take the screen's *negative* verdict,
/// scores strictly above `hi` take the screen's *positive* verdict, and
/// everything in `[lo, hi]` — including both edges — escalates to the
/// exact path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeBand {
    /// Lower band edge (raw screen-probability units).
    pub lo: i64,
    /// Upper band edge (raw screen-probability units).
    pub hi: i64,
    /// The screen scale the edges are expressed at.
    pub scale: i64,
}

impl CascadeBand {
    /// The screen verdict for `score`, or `None` when the window must
    /// escalate. Band edges escalate.
    pub fn decide(&self, score: i64) -> Option<bool> {
        if score < self.lo {
            Some(false)
        } else if score > self.hi {
            Some(true)
        } else {
            None
        }
    }

    /// Band width as a fraction of the probability range (diagnostic).
    pub fn width_frac(&self) -> f64 {
        (self.hi - self.lo).max(0) as f64 / self.scale as f64
    }

    /// The *forced* verdict for a score, used by the mux's screen-only
    /// overload mode when escalation to the exact path is suspended:
    /// the band splits at its midpoint (`2·score > lo + hi` is
    /// positive). Outside the band this agrees with
    /// [`decide`](Self::decide); inside it, the verdict is a knowingly
    /// degraded best effort, counted separately (`MuxStats::forced_screen`)
    /// so overload-mode coverage is never mistaken for calibrated
    /// screening.
    pub fn force(&self, score: i64) -> bool {
        score.saturating_mul(2) > self.lo.saturating_add(self.hi)
    }
}

/// A screen model ready to store or ship: the quantized weights plus
/// their calibrated band, under a serialization version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreenModel {
    /// Must equal [`SCREEN_MODEL_VERSION`] to load.
    pub version: u32,
    /// The quantized screen weights.
    pub weights: ScreenWeights,
    /// The calibrated uncertainty band.
    pub band: CascadeBand,
}

impl ScreenModel {
    /// Serializes to JSON.
    ///
    /// # Panics
    ///
    /// Panics only if JSON serialization itself fails (it cannot for
    /// these types).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("screen model serializes")
    }

    /// Deserializes from JSON, refusing unknown versions and bands whose
    /// scale disagrees with the weights.
    ///
    /// # Errors
    ///
    /// Returns a description when the JSON is malformed, the version is
    /// not [`SCREEN_MODEL_VERSION`], or the band scale mismatches.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let model: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if model.version != SCREEN_MODEL_VERSION {
            return Err(format!(
                "screen model version {} unsupported (this build reads {})",
                model.version, SCREEN_MODEL_VERSION
            ));
        }
        if model.band.scale != model.weights.scale() {
            return Err(format!(
                "band scale {} disagrees with weights scale {}",
                model.band.scale,
                model.weights.scale()
            ));
        }
        Ok(model)
    }
}

/// The screen tier's runtime form: the fused recurrent matrix packed
/// through the `i16` narrow-MAC proof, the vocabulary gate table at
/// scale² (input contribution and bias folded per item), and the
/// logistic head.
#[derive(Debug, Clone)]
pub struct ScreenGates {
    recurrent: PackedGatesI16,
    /// `vocab × 4H`, entry `[v·4H + r] = Σ_e w_x[r][e]·emb[v][e] + bias[r]·scale`.
    table: Vec<i64>,
    fc_w: Vec<i64>,
    fc_b: i64,
    scale: i64,
    hidden: usize,
    vocab: usize,
}

impl ScreenGates {
    /// Packs quantized screen weights into runtime form. Because
    /// [`ScreenWeights::quantize`] retrain-calibrates every recurrent
    /// row into the proof's budget, this never declines on its output;
    /// the `Result` guards hand-built weights.
    ///
    /// # Errors
    ///
    /// Returns the structured [`I16Decline`] when a recurrent row fails
    /// `row_fits_i16_mac` against the `|h| ≤ scale` bound.
    ///
    /// # Panics
    ///
    /// Panics when the weight array lengths disagree with the config.
    pub fn pack(w: &ScreenWeights) -> Result<Self, I16Decline> {
        let (h, e, v) = (w.config.hidden, w.config.embed_dim, w.config.vocab);
        assert_eq!(w.w_h.len(), 4 * h * h, "recurrent size mismatch");
        assert_eq!(w.w_x.len(), 4 * h * e, "kernel size mismatch");
        assert_eq!(w.bias.len(), 4 * h, "bias size mismatch");
        assert_eq!(w.embedding.len(), v * e, "embedding size mismatch");
        assert_eq!(w.fc_w.len(), h, "head size mismatch");
        let scale = w.scale();
        let zbound = vec![scale; h];
        let recurrent = PackedGatesI16::pack_rows_raw(4 * h, h, &w.w_h, &zbound)?;
        let mut table = Vec::with_capacity(v * 4 * h);
        for item in 0..v {
            let emb = &w.embedding[item * e..(item + 1) * e];
            for r in 0..4 * h {
                let mut acc = w.bias[r] as i128 * scale as i128;
                for (wx, em) in w.w_x[r * e..(r + 1) * e].iter().zip(emb) {
                    acc += *wx as i128 * *em as i128;
                }
                table.push(i64::try_from(acc).expect("screen gate-table entry fits i64"));
            }
        }
        Ok(Self {
            recurrent,
            table,
            fc_w: w.fc_w.clone(),
            fc_b: w.fc_b,
            scale,
            hidden: h,
            vocab: v,
        })
    }

    /// The screen scale (raw probability units per 1.0).
    pub fn scale(&self) -> i64 {
        self.scale
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Vocabulary size the gate table covers.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The packed recurrent matrix (introspection).
    pub fn recurrent(&self) -> &PackedGatesI16 {
        &self.recurrent
    }

    /// Heap bytes held by the packed screen tier.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.recurrent.weights())
            + self.table.capacity() * std::mem::size_of::<i64>()
            + self.fc_w.capacity() * std::mem::size_of::<i64>()
    }

    /// The logistic head over a hidden state read through `h_at`:
    /// `σ_PLAN(div_round(Σ fc_w[k]·h[k] + fc_b·scale, scale))`, raw at
    /// `scale`. Shared by the serial and lane retire paths so they
    /// cannot drift.
    fn head<F: Fn(usize) -> i16>(&self, h_at: F) -> i64 {
        let mut acc = self.fc_b * self.scale;
        for (k, wk) in self.fc_w.iter().enumerate() {
            acc += wk * h_at(k) as i64;
        }
        plan_sigmoid_raw(div_round_raw(acc, self.scale), self.scale)
    }

    /// Serial reference scorer: walks `seq` through the integer
    /// recurrence and returns the raw screen probability. Bit-identical
    /// to the lane path ([`Self::step_lanes`] + [`Self::retire_lane`])
    /// by construction — the serial loop performs the same integer
    /// operations in the same order per element.
    ///
    /// Allocates its small state buffers (`≤ 6·4H` words); the mux's
    /// bulk path uses the lane form instead.
    ///
    /// # Panics
    ///
    /// Panics when any item is outside the vocabulary.
    pub fn score_serial(&self, seq: &[usize]) -> i64 {
        let hd = self.hidden;
        let mut h = vec![0i16; hd];
        let mut c = vec![0i64; hd];
        let mut g = vec![0i64; 4 * hd];
        let w = self.recurrent.weights();
        for &item in seq {
            assert!(
                item < self.vocab,
                "item {item} outside vocab {}",
                self.vocab
            );
            let trow = &self.table[item * 4 * hd..(item + 1) * 4 * hd];
            for r in 0..4 * hd {
                // Exact by the narrow-MAC proof: the lane kernel's i32
                // sum equals this i64 sum.
                let mut mac = 0i64;
                for (wk, hk) in w[r * hd..(r + 1) * hd].iter().zip(&h) {
                    mac += *wk as i64 * *hk as i64;
                }
                g[r] = div_round_raw(mac + trow[r], self.scale);
            }
            for v in &mut g[..2 * hd] {
                *v = plan_sigmoid_raw(*v, self.scale);
            }
            for v in &mut g[2 * hd..3 * hd] {
                *v = softsign_raw(*v, self.scale);
            }
            for v in &mut g[3 * hd..] {
                *v = plan_sigmoid_raw(*v, self.scale);
            }
            for j in 0..hd {
                let (gi, gf, gc, go) = (g[j], g[hd + j], g[2 * hd + j], g[3 * hd + j]);
                let ct = div_round_raw(gf * c[j] + gi * gc, self.scale);
                c[j] = ct;
                h[j] = div_round_raw(go * softsign_raw(ct, self.scale), self.scale) as i16;
            }
        }
        self.head(|k| h[k])
    }

    /// Advances every lane one timestep. `items[l] = Some(v)` moves lane
    /// `l` onto item `v` first; `None` lanes re-step on their previous
    /// item (idle lanes park on the bounded placeholder row 0 — same
    /// contract as the exact lane path, only retired lanes' outputs are
    /// read).
    ///
    /// # Panics
    ///
    /// Panics when `items.len()` disagrees with the scratch width or an
    /// item is outside the vocabulary.
    pub fn step_lanes(&self, s: &mut ScreenLaneScratch, items: &[Option<usize>]) {
        let width = s.width();
        assert_eq!(items.len(), width, "one item slot per lane");
        assert_eq!(
            s.h.len(),
            self.hidden * width,
            "scratch sized for this model"
        );
        for (slot, it) in s.item.iter_mut().zip(items) {
            if let Some(v) = *it {
                assert!(v < self.vocab, "item {v} outside vocab {}", self.vocab);
                *slot = v;
            }
        }
        self.recurrent.matmul_lanes_into(&s.h, width, &mut s.mac);
        csd_tensor::lanes::screen_preact_lanes(
            &s.mac,
            4 * self.hidden,
            width,
            &self.table,
            &s.item,
            self.scale,
            &mut s.g,
        );
        csd_tensor::lanes::screen_activate_lanes(&mut s.g, self.hidden, width, self.scale);
        csd_tensor::lanes::screen_update_lanes(
            &s.g,
            self.hidden,
            width,
            self.scale,
            &mut s.c,
            &mut s.h,
        );
    }

    /// Reads one finished lane's raw screen probability.
    pub fn retire_lane(&self, s: &ScreenLaneScratch, lane: usize) -> i64 {
        let width = s.width();
        self.head(|k| s.h[k * width + lane])
    }

    /// Scores a batch of sequences through the lane path — the bulk
    /// counterpart of [`score_serial`](Self::score_serial), bit-identical
    /// to it per sequence (the parity tests prove it). Sequences are
    /// processed `width` lanes at a time; a lane whose sequence ends
    /// before the chunk's longest retires at its own last step and parks
    /// for the remainder, exactly the mux's schedule.
    ///
    /// The schedule contract is explicit about degenerate shapes: an
    /// empty batch (or an empty chunk) runs zero lane steps and
    /// contributes no scores — `max()` over no lane lengths is `None`,
    /// never a panic — and a zero-length sequence scores the head of the
    /// zero state, matching `score_serial(&[])`.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or any item is outside the
    /// vocabulary.
    pub fn score_lanes(&self, seqs: &[&[usize]], width: usize) -> Vec<i64> {
        assert!(width > 0, "a lane block needs at least one lane");
        let mut out = Vec::with_capacity(seqs.len());
        for chunk in seqs.chunks(width) {
            let mut s = ScreenLaneScratch::new(self.hidden, width);
            // `chunks` never yields an empty slice, but the schedule
            // must not depend on that: no lanes → no steps, no scores.
            let Some(longest) = chunk.iter().map(|q| q.len()).max() else {
                continue;
            };
            let mut done: Vec<Option<i64>> = vec![None; chunk.len()];
            let mut items: Vec<Option<usize>> = vec![None; width];
            for t in 0..longest {
                // A lane whose sequence just ended retires *before* its
                // first parked step (None re-steps the previous item).
                for (l, q) in chunk.iter().enumerate() {
                    if t == q.len() && done[l].is_none() {
                        done[l] = Some(self.retire_lane(&s, l));
                    }
                }
                for (l, slot) in items.iter_mut().enumerate() {
                    *slot = chunk.get(l).and_then(|q| q.get(t).copied());
                }
                self.step_lanes(&mut s, &items);
            }
            for (l, score) in done.into_iter().enumerate() {
                out.push(score.unwrap_or_else(|| self.retire_lane(&s, l)));
            }
        }
        out
    }
}

/// The attached cascade: packed screen gates plus the stored model they
/// came from (weights + band), clone-cheap behind the engine's `Arc`.
#[derive(Debug, Clone)]
pub struct CascadeTier {
    model: ScreenModel,
    gates: ScreenGates,
}

impl CascadeTier {
    /// Builds the runtime tier from a stored model.
    ///
    /// # Errors
    ///
    /// Returns [`I16Decline`] when the model's recurrent rows fail the
    /// narrow-MAC proof (impossible for [`ScreenWeights::quantize`]
    /// output, possible for hand-built weights).
    pub fn from_model(model: ScreenModel) -> Result<Self, I16Decline> {
        let gates = ScreenGates::pack(&model.weights)?;
        Ok(Self { model, gates })
    }

    /// The stored model (for serialization).
    pub fn model(&self) -> &ScreenModel {
        &self.model
    }

    /// The calibrated band.
    pub fn band(&self) -> CascadeBand {
        self.model.band
    }

    /// The packed screen gates.
    pub fn gates(&self) -> &ScreenGates {
        &self.gates
    }

    /// Serial screen pass: the raw score and the band's decision
    /// (`None` = escalate to the exact path).
    pub fn screen(&self, seq: &[usize]) -> (i64, Option<bool>) {
        let score = self.gates.score_serial(seq);
        (score, self.model.band.decide(score))
    }
}

/// What calibration saw and produced — reported by the cascade campaign
/// and stored alongside benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Calibration windows scored.
    pub windows: usize,
    /// Exact-positive windows among them.
    pub positives: usize,
    /// Exact-negative windows among them.
    pub negatives: usize,
    /// Windows the calibrated band escalates.
    pub escalated: usize,
    /// `escalated / windows` (0 when no windows).
    pub escalation_rate: f64,
    /// Calibrated lower edge.
    pub lo: i64,
    /// Calibrated upper edge.
    pub hi: i64,
}

/// Calibrates the uncertainty band from `(screen score, exact verdict)`
/// pairs: `lo` sits `margin` below the lowest positive's score and `hi`
/// sits `margin` above the highest negative's score, so every
/// calibration window either escalates or screens to the verdict the
/// exact path gave — zero flips on the calibration set by construction.
///
/// When the classes separate cleanly (`lo > hi`), both edges collapse to
/// the midpoint: confident scores on each side keep their verdict and
/// only an exact hit on the midpoint escalates. Degenerate sets are
/// conservative: with no positives every score screens negative; with no
/// negatives every score screens positive; with neither, everything
/// escalates.
pub fn calibrate_band(
    scale: i64,
    samples: &[(i64, bool)],
    margin: i64,
) -> (CascadeBand, CalibrationReport) {
    let margin = margin.max(0);
    let positives = samples.iter().filter(|&&(_, p)| p).count();
    let negatives = samples.len() - positives;
    let min_pos = samples.iter().filter(|&&(_, p)| p).map(|&(s, _)| s).min();
    let max_neg = samples.iter().filter(|&&(_, p)| !p).map(|&(s, _)| s).max();
    let band = match (min_pos, max_neg) {
        (Some(mp), Some(mn)) => {
            let (mut lo, mut hi) = (mp - margin, mn + margin);
            if lo > hi {
                // Clean separation — collapse to the midpoint; only an
                // exact hit on it escalates.
                let mid = lo + (hi - lo) / 2;
                lo = mid;
                hi = mid;
            }
            CascadeBand { lo, hi, scale }
        }
        // Single-class and empty sets keep an explicit empty or full
        // band (an empty interval `lo > hi` never escalates).
        // No positives observed: everything may screen negative.
        (None, Some(_)) => CascadeBand {
            lo: scale + 1,
            hi: scale,
            scale,
        },
        // No negatives observed: everything may screen positive.
        (Some(_), None) => CascadeBand {
            lo: 0,
            hi: -1,
            scale,
        },
        // Nothing observed: escalate everything.
        (None, None) => CascadeBand {
            lo: 0,
            hi: scale,
            scale,
        },
    };
    let escalated = samples
        .iter()
        .filter(|&&(s, _)| band.decide(s).is_none())
        .count();
    debug_assert!(
        samples
            .iter()
            .all(|&(s, p)| band.decide(s).is_none_or(|v| v == p)),
        "calibrated band contradicts a calibration sample"
    );
    let report = CalibrationReport {
        windows: samples.len(),
        positives,
        negatives,
        escalated,
        escalation_rate: if samples.is_empty() {
            0.0
        } else {
            escalated as f64 / samples.len() as f64
        },
        lo: band.lo,
        hi: band.hi,
    };
    (band, report)
}

/// End-to-end cascade construction: quantize the trained export at
/// `10^scale_pow`, pack the screen gates, score every calibration
/// window, query the exact path's verdict through `exact`, and calibrate
/// the band with `margin_frac·scale` of slack.
///
/// # Errors
///
/// Returns [`I16Decline`] only for hand-built weights whose rows evade
/// the quantizer's retrain-calibration (never for real exports).
///
/// # Panics
///
/// Panics when `scale_pow` is outside the provable range (see
/// [`csd_nn::SCREEN_SCALE_POW_MAX`]).
pub fn build_cascade<F: Fn(&[usize]) -> bool>(
    weights: &ModelWeights,
    scale_pow: u32,
    margin_frac: f64,
    windows: &[Vec<usize>],
    exact: F,
) -> Result<(CascadeTier, CalibrationReport, ScreenQuantReport), I16Decline> {
    let (screen, quant) = ScreenWeights::quantize(weights, scale_pow);
    let gates = ScreenGates::pack(&screen)?;
    let scale = gates.scale();
    let samples: Vec<(i64, bool)> = windows
        .iter()
        .map(|w| (gates.score_serial(w), exact(w)))
        .collect();
    let margin = ((margin_frac.max(0.0) * scale as f64).round() as i64).max(0);
    let (band, report) = calibrate_band(scale, &samples, margin);
    let tier = CascadeTier {
        model: ScreenModel {
            version: SCREEN_MODEL_VERSION,
            weights: screen,
            band,
        },
        gates,
    };
    Ok((tier, report, quant))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use csd_nn::{ModelConfig, SequenceClassifier};

    fn screen_weights(pow: u32) -> ScreenWeights {
        let model = SequenceClassifier::new(ModelConfig::paper(), 77);
        ScreenWeights::quantize(&ModelWeights::from_model(&model), pow).0
    }

    fn sequences(vocab: usize) -> Vec<Vec<usize>> {
        // Deterministic mixed-length item streams.
        (0..17)
            .map(|i| {
                let len = 1 + (i * 7) % 23;
                (0..len).map(|t| (i * 131 + t * 48_271) % vocab).collect()
            })
            .collect()
    }

    #[test]
    fn lane_and_serial_screen_paths_are_bit_identical() {
        for pow in [3u32, 4] {
            let gates = ScreenGates::pack(&screen_weights(pow)).expect("packs");
            let seqs = sequences(gates.vocab());
            let views: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            for width in [1usize, 3, 16] {
                let lane_scores = gates.score_lanes(&views, width);
                assert_eq!(lane_scores.len(), seqs.len());
                for (l, (seq, lane_score)) in seqs.iter().zip(&lane_scores).enumerate() {
                    assert_eq!(
                        *lane_score,
                        gates.score_serial(seq),
                        "pow={pow} width={width} lane={l} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_chunk_scores_no_lanes_instead_of_panicking() {
        // Regression: the lane-walk schedule took `max()` over the
        // chunk's sequence lengths and unwrapped it, so the empty-chunk
        // shape panicked instead of scheduling zero steps.
        let gates = ScreenGates::pack(&screen_weights(4)).expect("packs");
        assert!(gates.score_lanes(&[], 1).is_empty());
        assert!(gates.score_lanes(&[], 16).is_empty());
    }

    #[test]
    fn zero_length_sequences_score_the_zero_state_on_both_paths() {
        let gates = ScreenGates::pack(&screen_weights(4)).expect("packs");
        let serial = gates.score_serial(&[]);
        // Alone, and sharing a chunk with a non-empty lane (the parked
        // lane must retire before its first step).
        assert_eq!(gates.score_lanes(&[&[]], 4), vec![serial]);
        let other: Vec<usize> = vec![1, 2, 3];
        let scores = gates.score_lanes(&[&[], &other], 4);
        assert_eq!(scores[0], serial);
        assert_eq!(scores[1], gates.score_serial(&other));
    }

    #[test]
    fn gate_table_folds_input_and_bias_exactly() {
        let w = screen_weights(4);
        let gates = ScreenGates::pack(&w).expect("packs");
        let (h, e) = (w.config.hidden, w.config.embed_dim);
        let item = 42 % w.config.vocab;
        let r = 3 * h + 7; // gate o, row 7
        let mut want = w.bias[r] as i128 * w.scale() as i128;
        for k in 0..e {
            want += w.w_x[r * e + k] as i128 * w.embedding[item * e + k] as i128;
        }
        assert_eq!(gates.table[item * 4 * h + r] as i128, want);
    }

    #[test]
    fn band_edges_escalate_and_outside_decides() {
        let band = CascadeBand {
            lo: 2_000,
            hi: 7_000,
            scale: 10_000,
        };
        assert_eq!(band.decide(1_999), Some(false));
        assert_eq!(band.decide(2_000), None, "lower edge escalates");
        assert_eq!(band.decide(5_000), None);
        assert_eq!(band.decide(7_000), None, "upper edge escalates");
        assert_eq!(band.decide(7_001), Some(true));
    }

    #[test]
    fn calibration_never_contradicts_its_samples() {
        let scale = 10_000;
        // Overlapping classes: negatives up to 6000, positives from 4000.
        let mut samples = Vec::new();
        for i in 0..50 {
            samples.push((1_000 + i * 100, false));
            samples.push((4_000 + i * 100, true));
        }
        let (band, report) = calibrate_band(scale, &samples, 150);
        assert_eq!(band.lo, 4_000 - 150);
        assert_eq!(band.hi, 5_900 + 150);
        for &(s, p) in &samples {
            if let Some(v) = band.decide(s) {
                assert_eq!(v, p, "screen verdict flips sample at {s}");
            }
        }
        assert_eq!(report.windows, 100);
        assert_eq!(report.positives, 50);
        assert!(report.escalated > 0);
        assert!((report.escalation_rate - report.escalated as f64 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn clean_separation_collapses_to_midpoint() {
        let samples = [(1_000, false), (2_000, false), (8_000, true), (9_000, true)];
        let (band, report) = calibrate_band(10_000, &samples, 100);
        assert_eq!(band.lo, band.hi, "collapsed");
        assert!(band.lo > 2_100 && band.hi < 7_900);
        assert_eq!(report.escalated, 0);
        assert_eq!(band.decide(band.lo), None, "only the midpoint escalates");
    }

    #[test]
    fn degenerate_calibrations_stay_conservative() {
        let scale = 10_000;
        // Single-class sets screen everything to that class.
        let (neg_only, _) = calibrate_band(scale, &[(3_000, false)], 100);
        assert_eq!(neg_only.decide(9_999), Some(false));
        assert_eq!(neg_only.decide(0), Some(false));
        let (pos_only, _) = calibrate_band(scale, &[(3_000, true)], 100);
        assert_eq!(pos_only.decide(0), Some(true));
        // Empty set escalates the whole range.
        let (empty, report) = calibrate_band(scale, &[], 100);
        assert_eq!(empty.decide(0), None);
        assert_eq!(empty.decide(scale), None);
        assert_eq!(report.escalation_rate, 0.0);
    }

    #[test]
    fn screen_model_serde_roundtrip_and_version_gate() {
        let weights = screen_weights(3);
        let band = CascadeBand {
            lo: 100,
            hi: 900,
            scale: weights.scale(),
        };
        let model = ScreenModel {
            version: SCREEN_MODEL_VERSION,
            weights,
            band,
        };
        let json = model.to_json();
        let back = ScreenModel::from_json(&json).expect("round-trips");
        assert_eq!(back, model);

        let mut wrong = model.clone();
        wrong.version = SCREEN_MODEL_VERSION + 1;
        let err = ScreenModel::from_json(&wrong.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");

        let mut mismatched = model;
        mismatched.band.scale += 1;
        let err = ScreenModel::from_json(&mismatched.to_json()).unwrap_err();
        assert!(err.contains("scale"), "{err}");
    }

    #[test]
    fn build_cascade_end_to_end_agrees_with_the_exact_oracle() {
        let model = SequenceClassifier::new(ModelConfig::paper(), 5);
        let weights = ModelWeights::from_model(&model);
        let windows = sequences(weights.config.vocab);
        // Any deterministic oracle works for the zero-flip property.
        let exact = |w: &[usize]| model.predict_proba(w) >= 0.5;
        let (tier, report, quant) =
            build_cascade(&weights, 4, 0.02, &windows, exact).expect("builds");
        assert_eq!(quant.scale, 10_000);
        assert_eq!(report.windows, windows.len());
        for w in &windows {
            let (_, decision) = tier.screen(w);
            if let Some(v) = decision {
                assert_eq!(v, exact(w), "cascade flipped a calibration window");
            }
        }
        // The stored model round-trips into an identical tier.
        let reloaded = CascadeTier::from_model(
            ScreenModel::from_json(&tier.model().to_json()).expect("loads"),
        )
        .expect("packs");
        for w in &windows {
            assert_eq!(reloaded.screen(w), tier.screen(w));
        }
    }
}
