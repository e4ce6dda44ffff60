//! The EventHit network (paper §III, Fig. 3).
//!
//! A shared sub-network — LSTM encoder over the collection window, a fully
//! connected layer with dropout producing the latent vector `z` — feeds `K`
//! event-specific sub-networks. Each head consumes `z ⊕ X_n` (the latent
//! concatenated with the *last* feature vector of the window) and emits,
//! through a sigmoid, the vector `Θ_k = [b_k, θ_{k,1}, …, θ_{k,H}]`:
//! `b_k` scores the event's occurrence anywhere in the horizon and
//! `θ_{k,v}` scores its occurrence at horizon offset `v`.

use eventhit_rng::rngs::StdRng;
use eventhit_rng::SeedableRng;

use eventhit_nn::activation::Activation;
use eventhit_nn::dense::{Dense, QuantizedDense};
use eventhit_nn::dropout::Dropout;
use eventhit_nn::gru::{Gru, QuantizedGru};
use eventhit_nn::init::Init;
use eventhit_nn::lstm::{Lstm, QuantizedLstm};
use eventhit_nn::matrix::Matrix;
use eventhit_nn::optimizer::ParamMut;
use eventhit_nn::packed::{Codes, Scratch, StepRows};

use eventhit_video::records::Record;

/// Hyper-parameters of the EventHit network.
#[derive(Debug, Clone, PartialEq)]
pub struct EventHitConfig {
    /// Feature dimensionality `D`.
    pub input_dim: usize,
    /// Collection-window length `M`.
    pub window: usize,
    /// Time-horizon length `H`.
    pub horizon: usize,
    /// Number of event types `K`.
    pub num_events: usize,
    /// LSTM hidden size.
    pub hidden_dim: usize,
    /// Latent dimension of `z` after the shared fully connected layer.
    pub shared_dim: usize,
    /// Dropout probability on `z` during training.
    pub dropout: f32,
}

impl EventHitConfig {
    /// A reasonable default for the synthetic datasets: 48 LSTM units,
    /// 32-dim latent, 20% dropout.
    pub fn new(input_dim: usize, window: usize, horizon: usize, num_events: usize) -> Self {
        EventHitConfig {
            input_dim,
            window,
            horizon,
            num_events,
            hidden_dim: 48,
            shared_dim: 32,
            dropout: 0.2,
        }
    }

    fn validate(&self) {
        assert!(self.input_dim > 0 && self.window > 0 && self.horizon > 0);
        assert!(self.num_events > 0, "at least one event type required");
        assert!(self.hidden_dim > 0 && self.shared_dim > 0);
    }
}

/// Which recurrent encoder the shared sub-network uses. The paper uses an
/// LSTM (§III); GRU is provided for the encoder-choice ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// Long short-term memory (the paper's choice).
    #[default]
    Lstm,
    /// Gated recurrent unit (ablation alternative).
    Gru,
}

/// The recurrent encoder, dispatching on [`EncoderKind`].
#[derive(Clone)]
enum Encoder {
    Lstm(Lstm),
    Gru(Gru),
}

impl Encoder {
    fn forward(&mut self, xs: &[Matrix]) -> Matrix {
        match self {
            Encoder::Lstm(l) => l.forward(xs),
            Encoder::Gru(g) => g.forward(xs),
        }
    }

    fn infer<'s>(
        &self,
        steps: usize,
        batch: usize,
        x: &StepRows<'_>,
        s: &'s mut Scratch,
    ) -> &'s [f32] {
        match self {
            Encoder::Lstm(l) => l.infer(steps, batch, x, s),
            Encoder::Gru(g) => g.infer(steps, batch, x, s),
        }
    }

    fn backward_last(&mut self, dh: &Matrix) {
        match self {
            Encoder::Lstm(l) => {
                l.backward_last(dh);
            }
            Encoder::Gru(g) => {
                g.backward_last(dh);
            }
        }
    }

    fn zero_grad(&mut self) {
        match self {
            Encoder::Lstm(l) => l.zero_grad(),
            Encoder::Gru(g) => g.zero_grad(),
        }
    }

    fn drop_training_state(&mut self) {
        match self {
            Encoder::Lstm(l) => l.drop_training_state(),
            Encoder::Gru(g) => g.drop_training_state(),
        }
    }

    fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        match self {
            Encoder::Lstm(l) => l.params_mut(),
            Encoder::Gru(g) => g.params_mut(),
        }
    }

    fn param_count(&self) -> usize {
        match self {
            Encoder::Lstm(l) => l.param_count(),
            Encoder::Gru(g) => g.param_count(),
        }
    }

    fn kind(&self) -> EncoderKind {
        match self {
            Encoder::Lstm(_) => EncoderKind::Lstm,
            Encoder::Gru(_) => EncoderKind::Gru,
        }
    }
}

/// The EventHit network.
///
/// Cloning copies the full parameter set plus training state (RNG,
/// caches); multi-stream lanes clone a trained model so each lane can
/// score independently on its own thread.
#[derive(Clone)]
pub struct EventHit {
    config: EventHitConfig,
    encoder: Encoder,
    shared_fc: Dense,
    dropout: Dropout,
    heads: Vec<Dense>,
    rng: StdRng,
    /// Cache of the last-forward concatenated input (training mode).
    cache_concat: Option<Matrix>,
}

impl EventHit {
    /// Creates a network with freshly initialized weights and the paper's
    /// LSTM encoder.
    pub fn new(config: EventHitConfig, seed: u64) -> Self {
        Self::with_encoder(config, EncoderKind::Lstm, seed)
    }

    /// Creates a network with the chosen recurrent encoder.
    pub fn with_encoder(config: EventHitConfig, kind: EncoderKind, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = match kind {
            EncoderKind::Lstm => {
                Encoder::Lstm(Lstm::new(config.input_dim, config.hidden_dim, &mut rng))
            }
            EncoderKind::Gru => {
                Encoder::Gru(Gru::new(config.input_dim, config.hidden_dim, &mut rng))
            }
        };
        // Tanh keeps the latent bounded and kink-free (the paper does not
        // specify the shared layer's activation).
        let shared_fc = Dense::new(
            config.hidden_dim,
            config.shared_dim,
            Activation::Tanh,
            Init::XavierUniform,
            &mut rng,
        );
        let dropout = Dropout::new(config.dropout);
        let head_in = config.shared_dim + config.input_dim;
        let heads = (0..config.num_events)
            .map(|_| {
                Dense::new(
                    head_in,
                    1 + config.horizon,
                    Activation::Sigmoid,
                    Init::XavierUniform,
                    &mut rng,
                )
            })
            .collect();
        EventHit {
            config,
            encoder,
            shared_fc,
            dropout,
            heads,
            rng,
            cache_concat: None,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &EventHitConfig {
        &self.config
    }

    /// Which recurrent encoder this network uses.
    pub fn encoder_kind(&self) -> EncoderKind {
        self.encoder.kind()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.encoder.param_count()
            + self.shared_fc.param_count()
            + self.heads.iter().map(Dense::param_count).sum::<usize>()
    }

    /// Switches dropout between training and inference behaviour.
    pub fn set_training(&mut self, training: bool) {
        self.dropout.set_training(training);
    }

    /// Forward pass over a batch of records, caching intermediates for
    /// [`EventHit::backward`]. Returns one `batch x (1 + H)` sigmoid output
    /// per event head.
    pub fn forward(&mut self, records: &[&Record]) -> Vec<Matrix> {
        assert!(!records.is_empty(), "empty batch");
        let xs = batch_sequence(&self.config, records);
        let h = self.encoder.forward(&xs);
        let z = self.shared_fc.forward(&h);
        let z = self.dropout.forward(&z, &mut self.rng);
        let concat = z.hcat(&xs[xs.len() - 1]);
        let outputs = self
            .heads
            .iter_mut()
            .map(|head| head.forward(&concat))
            .collect();
        self.cache_concat = Some(concat);
        outputs
    }

    /// Inference-only forward pass (dropout is never applied, no caching
    /// of the training graph). Pure `&self`, so one trained model can be
    /// shared across threads to score batches in parallel; the arithmetic
    /// matches [`EventHit::forward`] with dropout off, bit for bit.
    pub fn forward_inference(&self, records: &[&Record]) -> Vec<Matrix> {
        forward_records(self, records)
    }

    /// Allocation-free inference: scores `batch` windows of `steps` rows,
    /// `x(t, r)` being frame `t` of window `r`, into `s` (read the
    /// results with [`InferScratch::head`]). A caller that keeps one
    /// scratch per lane allocates nothing per forward. Bit-identical to
    /// [`EventHit::forward_inference`] on the same windows.
    ///
    /// # Panics
    /// Panics if `steps` is outside `[1, window]` or a row is not
    /// `input_dim` wide.
    pub fn infer_into(&self, steps: usize, batch: usize, x: &StepRows<'_>, s: &mut InferScratch) {
        run_net(self, steps, batch, x, s);
    }

    /// Backward pass: `grads[k]` is dL/d(output of head `k`). Accumulates
    /// all parameter gradients.
    pub fn backward(&mut self, grads: &[Matrix]) {
        assert_eq!(
            grads.len(),
            self.heads.len(),
            "one gradient per head required"
        );
        let concat = self
            .cache_concat
            .as_ref()
            .expect("EventHit::backward before forward")
            .clone();
        let mut d_concat = Matrix::zeros(concat.rows(), concat.cols());
        for (head, g) in self.heads.iter_mut().zip(grads) {
            d_concat.add_assign(&head.backward(g));
        }
        let (d_z, _d_xlast) = d_concat.hsplit(self.config.shared_dim);
        let d_z = self.dropout.backward(&d_z);
        let d_h = self.shared_fc.backward(&d_z);
        self.encoder.backward_last(&d_h);
    }

    /// The same network without its training state: the last
    /// minibatch's forward caches and every gradient buffer are freed.
    /// Weights, config and [`fingerprint`](crate::model_io::fingerprint)
    /// are unchanged and [`EventHit::forward_inference`] is bit-identical;
    /// [`EventHit::backward`] panics on the result. Serving lanes hold
    /// this form, so each lane costs its weights and no more.
    ///
    /// The inference weight packs are built here, so a lane's first
    /// decision does not pay for them.
    pub fn into_inference(mut self) -> Self {
        self.encoder.drop_training_state();
        self.shared_fc.drop_training_state();
        for head in &mut self.heads {
            head.drop_training_state();
        }
        self.dropout.drop_training_state();
        self.cache_concat = None;
        self
    }

    /// Zeros all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.shared_fc.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }
    }

    /// All `(parameter, gradient)` pairs, in a stable order.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        let mut params = self.encoder.params_mut();
        params.extend(self.shared_fc.params_mut());
        for head in &mut self.heads {
            params.extend(head.params_mut());
        }
        params
    }

    /// Snapshots the trained network onto the int8 quantized inference
    /// lane (see [`eventhit_nn::quant::InferenceLane`]). Every weight
    /// matrix is quantized once; the snapshot is immutable, `Send + Sync`,
    /// and cheap to clone, so build it before a scoring loop and reuse it.
    pub fn quantized(&self) -> QuantizedEventHit {
        let encoder = match &self.encoder {
            Encoder::Lstm(l) => QuantizedEncoder::Lstm(l.quantized()),
            Encoder::Gru(g) => QuantizedEncoder::Gru(g.quantized()),
        };
        QuantizedEventHit {
            config: self.config.clone(),
            encoder,
            shared_fc: self.shared_fc.quantized(),
            heads: self.heads.iter().map(Dense::quantized).collect(),
        }
    }
}

/// Assembles the encoder input sequence from a batch of records:
/// `xs[t]` is the `batch x D` matrix of the `t`-th window frame.
///
/// The sequence length is taken from the records themselves, not the
/// config: a batch of shrunken `m`-row windows (`1 <= m <= M`, the
/// adaptive-windowing path of `eventhit-core::sampling`) runs the
/// recurrent encoder for `m` steps. All records in one batch must share
/// the same window length; the full-window case (`m == M`) is
/// bit-identical to the historical fixed-shape behaviour.
fn batch_sequence(config: &EventHitConfig, records: &[&Record]) -> Vec<Matrix> {
    let m = records[0].covariates.rows();
    let d = config.input_dim;
    assert!(
        m >= 1 && m <= config.window,
        "window length {m} outside [1, {}]",
        config.window
    );
    let batch = records.len();
    (0..m)
        .map(|t| {
            let mut x = Matrix::zeros(batch, d);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(
                    r.covariates.shape(),
                    (m, d),
                    "record covariates must be {m}x{d} (uniform per batch)"
                );
                x.set_row(i, r.covariates.row(t));
            }
            x
        })
        .collect()
}

/// Reusable buffers for [`EventHit::infer_into`] and
/// [`QuantizedEventHit::infer_into`]: the encoder state, the latent `z`,
/// the head input `z ⊕ X_n`, and every head's output. Buffers grow to the
/// largest batch seen and are then reused.
#[derive(Clone, Debug, Default)]
pub struct InferScratch {
    encoder: Scratch,
    codes: Codes,
    z: Vec<f32>,
    concat: Vec<f32>,
    out: Vec<f32>,
    batch: usize,
    width: usize,
}

impl InferScratch {
    /// Head `k`'s output of the last forward: `batch x (1 + H)`
    /// row-major, row `r` being `[b_k, θ_{k,1}, …, θ_{k,H}]` of window `r`.
    pub fn head(&self, k: usize) -> &[f32] {
        let len = self.batch * self.width;
        &self.out[k * len..(k + 1) * len]
    }

    /// The per-head outputs as matrices (the [`EventHit::forward_inference`]
    /// shape).
    fn into_outputs(self, heads: usize) -> Vec<Matrix> {
        (0..heads)
            .map(|k| Matrix::from_vec(self.batch, self.width, self.head(k).to_vec()))
            .collect()
    }
}

/// The three inference stages both lanes share, so the window assembly,
/// `z ⊕ X_n` concatenation and head layout live in one place
/// ([`run_net`]). `codes` is int8 scratch for the quantized lane.
trait InferenceNet {
    fn cfg(&self) -> &EventHitConfig;
    fn encode<'s>(
        &self,
        steps: usize,
        batch: usize,
        x: &StepRows<'_>,
        s: &'s mut Scratch,
    ) -> &'s [f32];
    fn shared(&self, h: &[f32], batch: usize, codes: &mut Codes, z: &mut [f32]);
    fn head(&self, k: usize, concat: &[f32], batch: usize, codes: &mut Codes, out: &mut [f32]);
}

impl InferenceNet for EventHit {
    fn cfg(&self) -> &EventHitConfig {
        &self.config
    }

    fn encode<'s>(
        &self,
        steps: usize,
        batch: usize,
        x: &StepRows<'_>,
        s: &'s mut Scratch,
    ) -> &'s [f32] {
        self.encoder.infer(steps, batch, x, s)
    }

    fn shared(&self, h: &[f32], batch: usize, _: &mut Codes, z: &mut [f32]) {
        self.shared_fc.infer_rows(h, batch, z);
    }

    fn head(&self, k: usize, concat: &[f32], batch: usize, _: &mut Codes, out: &mut [f32]) {
        self.heads[k].infer_rows(concat, batch, out);
    }
}

impl InferenceNet for QuantizedEventHit {
    fn cfg(&self) -> &EventHitConfig {
        &self.config
    }

    fn encode<'s>(
        &self,
        steps: usize,
        batch: usize,
        x: &StepRows<'_>,
        s: &'s mut Scratch,
    ) -> &'s [f32] {
        match &self.encoder {
            QuantizedEncoder::Lstm(l) => l.infer(steps, batch, x, s),
            QuantizedEncoder::Gru(g) => g.infer(steps, batch, x, s),
        }
    }

    fn shared(&self, h: &[f32], batch: usize, codes: &mut Codes, z: &mut [f32]) {
        self.shared_fc.infer_rows(h, batch, codes, z);
    }

    fn head(&self, k: usize, concat: &[f32], batch: usize, codes: &mut Codes, out: &mut [f32]) {
        self.heads[k].infer_rows(concat, batch, codes, out);
    }
}

/// The inference forward of either lane: encoder over the window, shared
/// layer to `z`, then every head on `z ⊕ X_n` (the window's last frame).
fn run_net(
    net: &impl InferenceNet,
    steps: usize,
    batch: usize,
    x: &StepRows<'_>,
    s: &mut InferScratch,
) {
    let cfg = net.cfg();
    assert!(
        steps >= 1 && steps <= cfg.window,
        "window length {steps} outside [1, {}]",
        cfg.window
    );
    let (sd, width, heads) = (cfg.shared_dim, 1 + cfg.horizon, cfg.num_events);
    let h = net.encode(steps, batch, x, &mut s.encoder);
    reset(&mut s.z, batch * sd);
    net.shared(h, batch, &mut s.codes, &mut s.z);
    s.concat.clear();
    for r in 0..batch {
        s.concat.extend_from_slice(&s.z[r * sd..(r + 1) * sd]);
        s.concat.extend_from_slice(x(steps - 1, r));
    }
    reset(&mut s.out, heads * batch * width);
    let len = batch * width;
    for k in 0..heads {
        let out = &mut s.out[k * len..(k + 1) * len];
        net.head(k, &s.concat, batch, &mut s.codes, out);
    }
    (s.batch, s.width) = (batch, width);
}

/// Resets `buf` to `len` zeros, reusing its allocation.
fn reset(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// [`EventHit::forward_inference`] for either lane: checks the records'
/// window shapes and scores them straight from their covariates.
fn forward_records(net: &impl InferenceNet, records: &[&Record]) -> Vec<Matrix> {
    let cfg = net.cfg();
    assert!(!records.is_empty(), "empty batch");
    let m = records[0].covariates.rows();
    for r in records {
        assert_eq!(
            r.covariates.shape(),
            (m, cfg.input_dim),
            "record covariates must be {m}x{} (uniform per batch)",
            cfg.input_dim
        );
    }
    let mut s = InferScratch::default();
    let rows = |t: usize, r: usize| records[r].covariates.row(t);
    run_net(net, m, records.len(), &rows, &mut s);
    s.into_outputs(cfg.num_events)
}

/// The quantized recurrent encoder, mirroring [`Encoder`].
#[derive(Clone)]
enum QuantizedEncoder {
    Lstm(QuantizedLstm),
    Gru(QuantizedGru),
}

/// An int8-weight snapshot of a trained [`EventHit`]: the quantized
/// inference lane. Produced by [`EventHit::quantized`]; runs the same
/// architecture with `i8` weight panels and f32 accumulation, so scores
/// approximate the exact lane's within the per-row quantization step.
/// Pair with conformal recalibration on quantized scores (see
/// `TaskRun::state_for_lane`) to keep the coverage guarantee.
#[derive(Clone)]
pub struct QuantizedEventHit {
    config: EventHitConfig,
    encoder: QuantizedEncoder,
    shared_fc: QuantizedDense,
    heads: Vec<QuantizedDense>,
}

impl QuantizedEventHit {
    /// The network configuration (shared with the source model).
    pub fn config(&self) -> &EventHitConfig {
        &self.config
    }

    /// Quantized inference forward pass, mirroring
    /// [`EventHit::forward_inference`]: one `batch x (1 + H)` sigmoid
    /// output per event head. Pure `&self`; integer sums are exact, so
    /// results are bit-identical across worker counts.
    pub fn forward_inference(&self, records: &[&Record]) -> Vec<Matrix> {
        forward_records(self, records)
    }

    /// Allocation-free quantized inference, the int8 form of
    /// [`EventHit::infer_into`].
    ///
    /// # Panics
    /// Panics if `steps` is outside `[1, window]` or a row is not
    /// `input_dim` wide.
    pub fn infer_into(&self, steps: usize, batch: usize, x: &StepRows<'_>, s: &mut InferScratch) {
        run_net(self, steps, batch, x, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventhit_video::records::EventLabel;

    fn record(m: usize, d: usize, value: f32) -> Record {
        Record {
            anchor: 0,
            covariates: Matrix::filled(m, d, value),
            labels: vec![EventLabel::absent()],
        }
    }

    fn tiny_config() -> EventHitConfig {
        EventHitConfig {
            input_dim: 4,
            window: 5,
            horizon: 10,
            num_events: 2,
            hidden_dim: 6,
            shared_dim: 5,
            dropout: 0.0,
        }
    }

    #[test]
    fn forward_output_shapes() {
        let mut model = EventHit::new(tiny_config(), 0);
        let r1 = record(5, 4, 0.1);
        let r2 = record(5, 4, 0.9);
        let outs = model.forward(&[&r1, &r2]);
        assert_eq!(outs.len(), 2);
        for o in &outs {
            assert_eq!(o.shape(), (2, 11));
            assert!(o.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn inference_matches_forward_without_dropout() {
        let mut model = EventHit::new(tiny_config(), 1);
        let r = record(5, 4, 0.3);
        let a = model.forward(&[&r]);
        let b = model.forward_inference(&[&r]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn inference_copy_keeps_weights_and_frees_training_state() {
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let mut model = EventHit::with_encoder(tiny_config(), kind, 3);
            let (r1, r2) = (record(5, 4, 0.2), record(5, 4, 0.7));
            let outs = model.forward(&[&r1, &r2]);
            model.backward(&outs);
            let expected = model.forward_inference(&[&r1]);
            let fp = crate::model_io::fingerprint(&mut model);

            let mut lean = model.into_inference();
            assert!(lean.cache_concat.is_none());
            assert!(lean.params_mut().iter().all(|p| p.grad.is_empty()));
            assert_eq!(crate::model_io::fingerprint(&mut lean), fp);
            assert_eq!(lean.forward_inference(&[&r1]), expected);
        }
    }

    #[test]
    fn inference_packs_never_outlive_the_weights() {
        // `a` builds its packs, then takes `b`'s weights through
        // `params_mut` — the path `model_io::load` and every optimizer
        // step write through. Its next inference must be `b`'s, and a
        // clone taken before the copy must still score `a`'s weights.
        for kind in [EncoderKind::Lstm, EncoderKind::Gru] {
            let mut a = EventHit::with_encoder(tiny_config(), kind, 10).into_inference();
            let mut b = EventHit::with_encoder(tiny_config(), kind, 11);
            let (r1, r2) = (record(5, 4, 0.2), record(5, 4, -0.6));
            let before = a.forward_inference(&[&r1, &r2]);
            let snapshot = a.clone();
            let fresh: Vec<Matrix> = b.params_mut().iter().map(|p| p.value.clone()).collect();
            for (p, v) in a.params_mut().into_iter().zip(&fresh) {
                p.value.as_mut_slice().copy_from_slice(v.as_slice());
            }
            let want = b.forward_inference(&[&r1, &r2]);
            assert_ne!(before, want);
            assert_eq!(a.forward_inference(&[&r1, &r2]), want);
            assert_eq!(snapshot.forward_inference(&[&r1, &r2]), before);

            let mut bytes = Vec::new();
            crate::model_io::save(&mut a, &mut bytes).unwrap();
            let loaded = crate::model_io::load(&mut bytes.as_slice()).unwrap();
            assert_eq!(loaded.forward_inference(&[&r1, &r2]), want);
        }
    }

    #[test]
    fn scratch_inference_matches_batch_inference() {
        // One reused scratch across window lengths and batch sizes gives
        // exactly the batch entry point's outputs, on both lanes.
        let model = EventHit::new(tiny_config(), 12);
        let quantized = model.quantized();
        let mut scratch = InferScratch::default();
        let mut qscratch = InferScratch::default();
        for (m, batch) in [(5usize, 3usize), (2, 1), (5, 1), (1, 4)] {
            let records: Vec<Record> = (0..batch)
                .map(|i| record(m, 4, 0.1 * i as f32 - 0.3))
                .collect();
            let refs: Vec<&Record> = records.iter().collect();
            let rows = |t: usize, r: usize| records[r].covariates.row(t);
            model.infer_into(m, batch, &rows, &mut scratch);
            quantized.infer_into(m, batch, &rows, &mut qscratch);
            let (exact, quant) = (
                model.forward_inference(&refs),
                quantized.forward_inference(&refs),
            );
            for k in 0..2 {
                assert_eq!(scratch.head(k), exact[k].as_slice(), "m={m} batch={batch}");
                assert_eq!(qscratch.head(k), quant[k].as_slice(), "m={m} batch={batch}");
            }
        }
    }

    #[test]
    fn dropout_only_active_in_training() {
        let mut cfg = tiny_config();
        cfg.dropout = 0.5;
        let mut model = EventHit::new(cfg, 2);
        let r = record(5, 4, 0.5);
        // Training forwards are stochastic: across several passes the
        // sampled masks must produce at least two distinct outputs.
        let passes: Vec<Matrix> = (0..8).map(|_| model.forward(&[&r]).remove(0)).collect();
        assert!(
            passes.iter().any(|p| *p != passes[0]),
            "dropout should perturb training forward passes"
        );
        // Inference passes are deterministic.
        let c = model.forward_inference(&[&r]);
        let d = model.forward_inference(&[&r]);
        assert_eq!(c[0], d[0]);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut model = EventHit::new(tiny_config(), 3);
        let r1 = record(5, 4, 0.2);
        let r2 = record(5, 4, -0.4);
        model.zero_grad();
        let outs = model.forward(&[&r1, &r2]);
        // Loss = sum of outputs; dL/dout = 1.
        let grads: Vec<Matrix> = outs
            .iter()
            .map(|o| Matrix::filled(o.rows(), o.cols(), 1.0))
            .collect();
        model.backward(&grads);
        let mut nonzero_params = 0;
        for p in model.params_mut() {
            if p.grad.max_abs() > 0.0 {
                nonzero_params += 1;
            }
        }
        // LSTM (3) + shared (2) + 2 heads (2 each) = 9 parameter tensors.
        assert_eq!(
            nonzero_params, 9,
            "all parameter tensors should receive gradient"
        );
    }

    #[test]
    fn analytic_gradients_match_finite_differences() {
        use eventhit_nn::gradcheck::check_gradients;
        let mut model = EventHit::new(tiny_config(), 4);
        let r1 = record(5, 4, 0.2);
        let r2 = record(5, 4, 0.7);
        let loss_fn = |m: &mut EventHit| {
            let outs = m.forward(&[&r1, &r2]);
            outs.iter()
                .map(|o| 0.5 * o.as_slice().iter().map(|&v| v * v).sum::<f32>())
                .sum()
        };
        let grad_fn = |m: &mut EventHit| {
            m.zero_grad();
            let outs = m.forward(&[&r1, &r2]);
            m.backward(&outs);
        };
        let err = check_gradients(&mut model, loss_fn, grad_fn, |m| m.params_mut(), 1e-2);
        assert!(err < 5e-2, "max rel err {err}");
    }

    #[test]
    fn inference_accepts_shrunken_windows() {
        // The adaptive-windowing path feeds m < M rows: the encoder runs
        // m steps and the heads consume z ⊕ (last row), so output shapes
        // are unchanged and results are deterministic.
        let model = EventHit::new(tiny_config(), 7);
        for m in 1..=5usize {
            let r = record(m, 4, 0.3);
            let outs = model.forward_inference(&[&r]);
            assert_eq!(outs.len(), 2);
            for o in &outs {
                assert_eq!(o.shape(), (1, 11));
            }
            let again = model.forward_inference(&[&r]);
            assert_eq!(outs, again);
        }
        // The quantized lane accepts the same shrunken windows.
        let q = model.quantized();
        let r = record(2, 4, 0.3);
        let outs = q.forward_inference(&[&r]);
        assert_eq!(outs[0].shape(), (1, 11));
    }

    #[test]
    #[should_panic(expected = "uniform per batch")]
    fn batch_rejects_mixed_window_lengths() {
        let model = EventHit::new(tiny_config(), 8);
        let a = record(5, 4, 0.1);
        let b = record(3, 4, 0.1);
        let _ = model.forward_inference(&[&a, &b]);
    }

    #[test]
    fn param_count_is_consistent() {
        let model = EventHit::new(tiny_config(), 5);
        // LSTM: 4*6*(4 + 6 + 1) = 264; shared: 5*6 + 5 = 35;
        // heads: 2 * (11 * 9 + 11) = 220.
        assert_eq!(model.param_count(), 264 + 35 + 220);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn forward_rejects_empty_batch() {
        let mut model = EventHit::new(tiny_config(), 6);
        let _ = model.forward(&[]);
    }
}
