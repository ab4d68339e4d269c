//! Weight export/import in the paper's host-program format.
//!
//! §III-A: "the associated weights and biases are extracted and written to a
//! text file. For example, TensorFlow allows one to extract parameters via
//! the `get_weights()` function, which returns three Numpy arrays consisting
//! of the weights W for `x_t`, the W for `h_{t−1}`, and the related b terms".
//!
//! [`ModelWeights`] captures exactly that layout — a TensorFlow-convention
//! `kernel` (`X × 4H`, gate order `i f c o`), `recurrent` (`H × 4H`), and
//! `bias` (`4H`) for the LSTM, plus the embedding table and the
//! fully-connected head — and serializes it to the line-oriented text file
//! the host program ingests.

use std::fmt;
use std::str::FromStr;

use csd_fxp::{row_mac_bound, Fx6};
use csd_tensor::{Matrix, Vector};

use crate::activation::Activation;
use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::lstm::LstmCell;
use crate::model::{ModelConfig, SequenceClassifier};

/// Errors produced when parsing a weight file.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightsError {
    /// The file did not start with the expected magic line.
    BadMagic,
    /// A header field was missing or malformed.
    BadHeader(String),
    /// A section had the wrong number of values.
    BadSection {
        /// Section name.
        section: String,
        /// Values expected.
        expected: usize,
        /// Values found.
        found: usize,
    },
    /// A numeric token failed to parse.
    BadNumber(String),
    /// The named gate row or head could overflow the 10^6 fixed point's
    /// `i64` on some input.
    Overflow(String),
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::BadMagic => write!(f, "missing csd-weights-v1 magic line"),
            WeightsError::BadHeader(h) => write!(f, "bad header field: {h}"),
            WeightsError::BadSection {
                section,
                expected,
                found,
            } => write!(
                f,
                "section [{section}] expected {expected} values, found {found}"
            ),
            WeightsError::BadNumber(tok) => write!(f, "unparsable number: {tok}"),
            WeightsError::Overflow(what) => {
                write!(f, "{what} can overflow the fixed-point accumulator")
            }
        }
    }
}

impl std::error::Error for WeightsError {}

/// The exported parameter set of a trained [`SequenceClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Architecture the weights belong to.
    pub config: ModelConfig,
    /// Flat row-major `vocab × embed_dim` embedding table.
    pub embedding: Vec<f64>,
    /// TensorFlow-convention kernel: flat row-major `embed_dim × 4·hidden`,
    /// gate column order `i f c o` (the "W for x_t" array).
    pub lstm_kernel: Vec<f64>,
    /// TensorFlow-convention recurrent kernel: flat row-major
    /// `hidden × 4·hidden` (the "W for h_{t−1}" array).
    pub lstm_recurrent: Vec<f64>,
    /// LSTM bias, length `4·hidden`, gate order `i f c o`.
    pub lstm_bias: Vec<f64>,
    /// Fully-connected head weights, length `hidden`.
    pub fc_weights: Vec<f64>,
    /// Fully-connected head bias.
    pub fc_bias: f64,
}

impl ModelWeights {
    /// Extracts the weights of a trained model (the `get_weights()` step).
    pub fn from_model(model: &SequenceClassifier) -> Self {
        let cfg = *model.config();
        let (x, h) = (cfg.embed_dim, cfg.hidden);
        let cell = model.lstm_cell();
        let mut kernel = vec![0.0; x * 4 * h];
        let mut recurrent = vec![0.0; h * 4 * h];
        let mut bias = vec![0.0; 4 * h];
        // Our cell stores W_g as H × (H+X) over [h | x]; TF stores
        // kernel[x, g·H + j] and recurrent[h, g·H + j].
        for g in 0..4 {
            let w = cell.weight(g);
            for j in 0..h {
                for hc in 0..h {
                    recurrent[hc * 4 * h + g * h + j] = w.get(j, hc);
                }
                for xc in 0..x {
                    kernel[xc * 4 * h + g * h + j] = w.get(j, h + xc);
                }
                bias[g * h + j] = cell.bias(g)[j];
            }
        }
        Self {
            config: cfg,
            embedding: model.embedding().table().to_f64_flat(),
            lstm_kernel: kernel,
            lstm_recurrent: recurrent,
            lstm_bias: bias,
            fc_weights: model.head().weights().to_f64_vec(),
            fc_bias: model.head().bias(),
        }
    }

    /// Reconstructs a model from the exported weights (the host-program
    /// ingest step, inverted for testing parity).
    ///
    /// # Panics
    ///
    /// Panics if array lengths disagree with `config`.
    pub fn to_model(&self) -> SequenceClassifier {
        let cfg = self.config;
        let (v, x, h) = (cfg.vocab, cfg.embed_dim, cfg.hidden);
        assert_eq!(self.embedding.len(), v * x, "embedding size mismatch");
        assert_eq!(self.lstm_kernel.len(), x * 4 * h, "kernel size mismatch");
        assert_eq!(
            self.lstm_recurrent.len(),
            h * 4 * h,
            "recurrent size mismatch"
        );
        assert_eq!(self.lstm_bias.len(), 4 * h, "bias size mismatch");
        assert_eq!(self.fc_weights.len(), h, "fc size mismatch");

        let embedding = Embedding::from_table(Matrix::from_f64_flat(v, x, &self.embedding));
        let mut cell = LstmCell::new(x, h, cfg.cell_activation, 0);
        for g in 0..4 {
            let w = cell.weight_mut(g);
            for j in 0..h {
                for hc in 0..h {
                    *w.get_mut(j, hc) = self.lstm_recurrent[hc * 4 * h + g * h + j];
                }
                for xc in 0..x {
                    *w.get_mut(j, h + xc) = self.lstm_kernel[xc * 4 * h + g * h + j];
                }
            }
            for j in 0..h {
                cell.bias_mut(g)[j] = self.lstm_bias[g * h + j];
            }
        }
        let head = Dense::from_parts(Vector::from(self.fc_weights.clone()), self.fc_bias);
        SequenceClassifier::from_parts(cfg, embedding, cell, head)
    }

    /// Total parameter count across all arrays.
    pub fn num_parameters(&self) -> usize {
        self.embedding.len()
            + self.lstm_kernel.len()
            + self.lstm_recurrent.len()
            + self.lstm_bias.len()
            + self.fc_weights.len()
            + 1
    }

    /// Serializes to the line-oriented text format the host program reads.
    pub fn to_text(&self) -> String {
        let act = match self.config.cell_activation {
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Softsign => "softsign",
        };
        let mut out = String::new();
        out.push_str("csd-weights-v1\n");
        out.push_str(&format!("vocab {}\n", self.config.vocab));
        out.push_str(&format!("embed_dim {}\n", self.config.embed_dim));
        out.push_str(&format!("hidden {}\n", self.config.hidden));
        out.push_str(&format!("activation {act}\n"));
        for (name, values) in [
            ("embedding", &self.embedding),
            ("lstm_kernel", &self.lstm_kernel),
            ("lstm_recurrent", &self.lstm_recurrent),
            ("lstm_bias", &self.lstm_bias),
            ("fc_weights", &self.fc_weights),
        ] {
            out.push_str(&format!("[{name}]\n"));
            for chunk in values.chunks(8) {
                let line: Vec<String> = chunk.iter().map(|v| format!("{v:.17e}")).collect();
                out.push_str(&line.join(" "));
                out.push('\n');
            }
        }
        out.push_str("[fc_bias]\n");
        out.push_str(&format!("{:.17e}\n", self.fc_bias));
        out
    }

    /// Parses the text format produced by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`WeightsError`] describing the first malformed element.
    pub fn from_text(text: &str) -> Result<Self, WeightsError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some("csd-weights-v1") {
            return Err(WeightsError::BadMagic);
        }
        let header = |name: &str, line: Option<&str>| -> Result<String, WeightsError> {
            let line = line.ok_or_else(|| WeightsError::BadHeader(name.to_string()))?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some(name) {
                return Err(WeightsError::BadHeader(name.to_string()));
            }
            parts
                .next()
                .map(str::to_string)
                .ok_or_else(|| WeightsError::BadHeader(name.to_string()))
        };
        let vocab = parse_num::<usize>(&header("vocab", lines.next())?)?;
        let embed_dim = parse_num::<usize>(&header("embed_dim", lines.next())?)?;
        let hidden = parse_num::<usize>(&header("hidden", lines.next())?)?;
        // A model with no hidden unit or no item has an empty gate table:
        // it loads, then cannot classify a single window.
        for (name, size) in [("vocab", vocab), ("hidden", hidden)] {
            if size == 0 {
                return Err(WeightsError::BadHeader(format!("{name} 0")));
            }
        }
        let act = match header("activation", lines.next())?.as_str() {
            "sigmoid" => Activation::Sigmoid,
            "tanh" => Activation::Tanh,
            "softsign" => Activation::Softsign,
            other => return Err(WeightsError::BadHeader(format!("activation {other}"))),
        };
        let config = ModelConfig {
            vocab,
            embed_dim,
            hidden,
            cell_activation: act,
        };

        // Collect remaining tokens per section.
        let mut sections: Vec<(String, Vec<f64>)> = Vec::new();
        for line in lines {
            let line = line.trim();
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                sections.push((name.to_string(), Vec::new()));
            } else {
                let Some(last) = sections.last_mut() else {
                    return Err(WeightsError::BadHeader(line.to_string()));
                };
                for tok in line.split_whitespace() {
                    last.1.push(parse_weight(tok)?);
                }
            }
        }
        let take = |name: &str, expected: usize| -> Result<Vec<f64>, WeightsError> {
            let (_, values) = sections.iter().find(|(n, _)| n == name).ok_or_else(|| {
                WeightsError::BadSection {
                    section: name.to_string(),
                    expected,
                    found: 0,
                }
            })?;
            if values.len() != expected {
                return Err(WeightsError::BadSection {
                    section: name.to_string(),
                    expected,
                    found: values.len(),
                });
            }
            Ok(values.clone())
        };
        // The header is as untrusted as the sections: a product that
        // wrapped could make an empty section the expected one.
        let size = |a: usize, b: usize| {
            a.checked_mul(b).ok_or_else(|| {
                WeightsError::BadHeader(format!(
                    "section size overflows: vocab {vocab} embed_dim {embed_dim} hidden {hidden}"
                ))
            })
        };
        let gate_cols = size(4, hidden)?;
        let embedding_len = size(vocab, embed_dim)?;
        let kernel_len = size(embed_dim, gate_cols)?;
        let recurrent_len = size(hidden, gate_cols)?;
        let weights = Self {
            config,
            embedding: take("embedding", embedding_len)?,
            lstm_kernel: take("lstm_kernel", kernel_len)?,
            lstm_recurrent: take("lstm_recurrent", recurrent_len)?,
            lstm_bias: take("lstm_bias", gate_cols)?,
            fc_weights: take("fc_weights", hidden)?,
            fc_bias: take("fc_bias", 1)?[0],
        };
        weights.check_fixed_point_range()?;
        Ok(weights)
    }

    /// Refuses weights whose fixed-point gate or head arithmetic could
    /// overflow `i64` on some input. A row's worst-case accumulator is
    /// `Σ|w|·max|z| + |b|·SCALE` — `|h| ≤ 1` (raw `SCALE`) and each
    /// embedding column's largest magnitude for a gate row, `|h| ≤ 1`
    /// for the head — and it must round to an `i64`, the most
    /// `Fx6::dot` plus the bias add can return without panicking.
    fn check_fixed_point_range(&self) -> Result<(), WeightsError> {
        let raw = |v: f64| Fx6::from_f64(v).raw();
        let scale = Fx6::SCALE as i128;
        let fits = |row: &[i64], zbound: &[i64], bias: f64| {
            let worst =
                row_mac_bound(row, zbound).saturating_add(raw(bias).unsigned_abs() as i128 * scale);
            worst <= i64::MAX as i128 * scale
        };
        let (x, h) = (self.config.embed_dim, self.config.hidden);
        let mut zbound = vec![Fx6::SCALE; h];
        zbound.resize(h + x, 0);
        for (i, &v) in self.embedding.iter().enumerate() {
            let zb = &mut zbound[h + i % x];
            *zb = (*zb).max(raw(v).saturating_abs());
        }
        let mut row = vec![0i64; h + x];
        for r in 0..4 * h {
            for (k, w) in row.iter_mut().enumerate() {
                *w = raw(if k < h {
                    self.lstm_recurrent[k * 4 * h + r]
                } else {
                    self.lstm_kernel[(k - h) * 4 * h + r]
                });
            }
            if !fits(&row, &zbound, self.lstm_bias[r]) {
                return Err(WeightsError::Overflow(format!("gate row {r}")));
            }
        }
        let fc: Vec<i64> = self.fc_weights.iter().map(|&v| raw(v)).collect();
        if !fits(&fc, &zbound[..h], self.fc_bias) {
            return Err(WeightsError::Overflow("the fc head".to_string()));
        }
        Ok(())
    }
}

fn parse_num<T: FromStr>(tok: &str) -> Result<T, WeightsError> {
    tok.parse()
        .map_err(|_| WeightsError::BadNumber(tok.to_string()))
}

/// A parameter token: a finite number the device's 10^6 fixed point can
/// hold. `NaN`, `inf` and `1e400` all parse as `f64`s, and the engine's
/// quantizer panics on them — so they stop here, with the rest of the
/// malformed input.
fn parse_weight(tok: &str) -> Result<f64, WeightsError> {
    let value = parse_num::<f64>(tok)?;
    Fx6::try_from_f64(value)
        .map(|_| value)
        .map_err(|_| WeightsError::BadNumber(tok.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_ish_model() -> SequenceClassifier {
        // Fresh random model is fine: export/import must preserve it exactly.
        SequenceClassifier::new(ModelConfig::tiny(9), 123)
    }

    #[test]
    fn export_parameter_count_matches_paper_shapes() {
        let model = SequenceClassifier::new(ModelConfig::paper(), 0);
        let w = ModelWeights::from_model(&model);
        assert_eq!(w.embedding.len(), 2_224);
        assert_eq!(w.lstm_kernel.len(), 8 * 128);
        assert_eq!(w.lstm_recurrent.len(), 32 * 128);
        assert_eq!(w.lstm_bias.len(), 128);
        assert_eq!(w.num_parameters(), 7_505);
    }

    #[test]
    fn model_roundtrip_is_exact() {
        let model = trained_ish_model();
        let restored = ModelWeights::from_model(&model).to_model();
        assert_eq!(model.flatten_params(), restored.flatten_params());
        let seq = [0usize, 3, 8, 1, 2];
        assert_eq!(model.predict_proba(&seq), restored.predict_proba(&seq));
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let w = ModelWeights::from_model(&trained_ish_model());
        let text = w.to_text();
        let parsed = ModelWeights::from_text(&text).expect("parse");
        assert_eq!(w, parsed);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            ModelWeights::from_text("nonsense"),
            Err(WeightsError::BadMagic)
        );
    }

    #[test]
    fn truncated_section_rejected() {
        let w = ModelWeights::from_model(&trained_ish_model());
        let mut text = w.to_text();
        // Drop the last line (part of [fc_bias]).
        text.truncate(text.trim_end().rfind('\n').expect("multi-line"));
        let err = ModelWeights::from_text(&text).unwrap_err();
        assert!(matches!(err, WeightsError::BadSection { .. }), "{err}");
    }

    #[test]
    fn bad_number_reported() {
        let w = ModelWeights::from_model(&trained_ish_model());
        let text = w
            .to_text()
            .replace("[fc_bias]\n", "[fc_bias]\nnot_a_number ");
        let err = ModelWeights::from_text(&text).unwrap_err();
        assert!(matches!(err, WeightsError::BadNumber(_)), "{err}");
        assert!(err.to_string().contains("not_a_number"));
    }

    #[test]
    fn numbers_the_fixed_point_cannot_hold_are_bad_numbers() {
        let text = ModelWeights::from_model(&trained_ish_model()).to_text();
        for hostile in ["NaN", "inf", "-inf", "1e400", "1e13", "-9.3e12"] {
            let text = text.replace("[fc_bias]\n", &format!("[fc_bias]\n{hostile} "));
            assert_eq!(
                ModelWeights::from_text(&text),
                Err(WeightsError::BadNumber(hostile.to_string()))
            );
        }
        // The largest magnitude that still quantizes is a number like any
        // other (and then one too many for its section).
        let text = text.replace("[fc_bias]\n", "[fc_bias]\n9.2e12 ");
        let err = ModelWeights::from_text(&text).unwrap_err();
        assert!(matches!(err, WeightsError::BadSection { .. }), "{err}");
    }

    #[test]
    fn weights_whose_fixed_point_can_overflow_are_refused() {
        let w = ModelWeights::from_model(&trained_ish_model());
        let h = w.config.hidden;
        let reload = |w: &ModelWeights| ModelWeights::from_text(&w.to_text());
        let refused = |what: String| Err(WeightsError::Overflow(what));

        // The head: a bias at the top of the range, and weights that can
        // push the logit past it.
        let mut head = w.clone();
        head.fc_weights.fill(1e11);
        head.fc_bias = 9.2e12;
        assert_eq!(reload(&head), refused("the fc head".to_string()));
        // At the edge: with no weight that bias fits, one weight of
        // 3·10^10 against |h| ≤ 1 takes it over `i64::MAX`.
        head.fc_weights.fill(0.0);
        assert_eq!(reload(&head), Ok(head.clone()));
        head.fc_weights[0] = 3e10;
        assert_eq!(reload(&head), refused("the fc head".to_string()));

        // A gate row: eight recurrent weights of 2·10^12 against |h| ≤ 1.
        let mut gate = w.clone();
        for hc in 0..h {
            gate.lstm_recurrent[hc * 4 * h + 2 * h + 5] = 2e12;
        }
        assert_eq!(reload(&gate), refused(format!("gate row {}", 2 * h + 5)));

        // An input column counts at the embedding's largest value in it.
        let mut input = w.clone();
        input.embedding[0] = 1e6;
        input.lstm_kernel[7] = 1e7;
        assert_eq!(reload(&input), refused("gate row 7".to_string()));
        input.embedding[0] = 0.5;
        assert_eq!(reload(&input), Ok(input.clone()));
    }

    #[test]
    fn header_products_that_overflow_are_bad_headers() {
        // 2^63 · 2 wraps to 0, which an empty [embedding] would satisfy;
        // the other two make `embed_dim·4·hidden` and `hidden·4·hidden`
        // overflow.
        for (vocab, embed_dim, hidden) in [
            ("9223372036854775808", "2", "1"),
            ("1", "4611686018427387904", "1"),
            ("1", "1", "4294967296"),
        ] {
            let text = format!(
                "csd-weights-v1\nvocab {vocab}\nembed_dim {embed_dim}\nhidden {hidden}\n\
                 activation softsign\n[embedding]\n[lstm_kernel]\n[lstm_recurrent]\n\
                 [lstm_bias]\n[fc_weights]\n[fc_bias]\n0.0\n"
            );
            let err = ModelWeights::from_text(&text).unwrap_err();
            assert!(matches!(err, WeightsError::BadHeader(_)), "{err}");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
    }

    #[test]
    fn an_empty_vocabulary_or_hidden_layer_is_a_bad_header() {
        for (vocab, hidden, field) in [("0", "2", "vocab 0"), ("3", "0", "hidden 0")] {
            let text = format!(
                "csd-weights-v1\nvocab {vocab}\nembed_dim 1\nhidden {hidden}\n\
                 activation softsign\n[embedding]\n[lstm_kernel]\n[lstm_recurrent]\n\
                 [lstm_bias]\n[fc_weights]\n[fc_bias]\n0.0\n"
            );
            let err = ModelWeights::from_text(&text).unwrap_err();
            assert_eq!(err, WeightsError::BadHeader(field.to_string()));
        }
    }

    #[test]
    fn gate_order_is_tensorflow_ifco() {
        // Poke one recurrent weight and check it lands in the right TF slot.
        let mut model = trained_ish_model();
        let h = model.config().hidden;
        let mut params = model.flatten_params();
        // Our canonical flat order: embedding | W_i | W_f | W_c | W_o | ...
        // W_f starts after embedding + one gate matrix.
        let emb = model.config().vocab * model.config().embed_dim;
        let z = h + model.config().embed_dim;
        let wf_start = emb + h * z;
        params[wf_start] = 0.5; // W_f[0, 0]: forget gate, row j=0, h-col 0.
        model.assign_params(&params);
        let w = ModelWeights::from_model(&model);
        // TF recurrent[h=0, gate=f(1)·H + j=0].
        assert_eq!(w.lstm_recurrent[h], 0.5);
    }
}
