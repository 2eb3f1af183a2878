//! Parameter storage shared across tapes.
//!
//! Model parameters outlive any single forward pass, so they live here
//! rather than on the [`crate::Tape`]. Gradients are accumulated into the
//! store by `Tape::backward`, which makes multi-sample (mini-batch)
//! gradient accumulation trivial: run several tapes, then step once.
//!
//! Data-parallel training reads one store from many tapes at once (one
//! per sample, on several threads) and collects each sample's gradients
//! in a private [`GradBuffer`]; the store is written only when those
//! buffers are reduced in sample order, after the fan-out returns. That
//! whole step is [`crate::parallel::minibatch_step`], the only user of
//! the reduction half of this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// Index of this parameter within its store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct ParamEntry {
    name: String,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    grad: Vec<f32>,
}

/// Owns every learnable tensor of a model, together with its gradient
/// accumulator and an RNG used for initialisation.
#[derive(Debug, Clone)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
    rng: StdRng,
}

impl ParamStore {
    /// Creates an empty store whose initialisers draw from a deterministic
    /// RNG seeded with `seed` (reproducible experiments).
    pub fn new(seed: u64) -> Self {
        Self { entries: Vec::new(), rng: StdRng::seed_from_u64(seed) }
    }

    /// Registers a parameter with explicit initial values.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn add_param(&mut self, name: &str, rows: usize, cols: usize, data: Vec<f32>) -> ParamId {
        assert_eq!(data.len(), rows * cols, "param `{name}` data length mismatch");
        let id = ParamId(self.entries.len() as u32);
        self.entries.push(ParamEntry {
            name: name.to_string(),
            rows,
            cols,
            grad: vec![0.0; data.len()],
            data,
        });
        id
    }

    /// Registers a parameter initialised with Xavier/Glorot uniform noise,
    /// the scheme used for every linear map in this workspace.
    pub fn add_xavier(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| self.rng.gen_range(-bound..bound)).collect();
        self.add_param(name, rows, cols, data)
    }

    /// Registers a parameter initialised to zero (biases, log-variances).
    pub fn add_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add_param(name, rows, cols, vec![0.0; rows * cols])
    }

    /// Registers a parameter with small uniform noise in `[-scale, scale]`
    /// (embedding tables).
    pub fn add_uniform(&mut self, name: &str, rows: usize, cols: usize, scale: f32) -> ParamId {
        let data = (0..rows * cols).map(|_| self.rng.gen_range(-scale..scale)).collect();
        self.add_param(name, rows, cols, data)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Shape of a parameter as `(rows, cols)`.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        let e = &self.entries[id.index()];
        (e.rows, e.cols)
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.index()].name
    }

    /// Read-only view of a parameter's values.
    pub fn data(&self, id: ParamId) -> &[f32] {
        &self.entries[id.index()].data
    }

    /// Mutable view of a parameter's values (used by optimizers and tests).
    pub fn data_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.entries[id.index()].data
    }

    /// Read-only view of a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.entries[id.index()].grad
    }

    /// Accumulates `delta` into the gradient of `id`.
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, delta: &[f32]) {
        let g = &mut self.entries[id.index()].grad;
        debug_assert_eq!(g.len(), delta.len());
        for (gi, di) in g.iter_mut().zip(delta) {
            *gi += di;
        }
    }

    /// Reduces a worker-local [`GradBuffer`] into this store's gradient
    /// accumulators. The mini-batch step calls this once per sample
    /// buffer, in sample-index order, so the reduction is a fixed
    /// sequence of float additions independent of worker count.
    ///
    /// # Panics
    /// Panics if the buffer was not created for this store's layout.
    pub(crate) fn accumulate(&mut self, buffer: &GradBuffer) {
        assert_eq!(self.entries.len(), buffer.grads.len(), "gradient buffer layout mismatch");
        for (e, bg) in self.entries.iter_mut().zip(&buffer.grads) {
            debug_assert_eq!(e.grad.len(), bg.len());
            for (g, d) in e.grad.iter_mut().zip(bg) {
                *g += d;
            }
        }
    }

    /// Clears every gradient accumulator. Call before each optimisation
    /// step's forward/backward passes.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Clears the gradient of a single parameter — the freezing
    /// primitive behind the mini-batch step's `frozen` list.
    pub(crate) fn zero_grad_of(&mut self, id: ParamId) {
        self.entries[id.index()].grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Scales every gradient by `factor` (used to average accumulated
    /// per-sample gradients into a mean mini-batch gradient).
    pub fn scale_grad(&mut self, factor: f32) {
        for e in &mut self.entries {
            e.grad.iter_mut().for_each(|g| *g *= factor);
        }
    }

    /// Global L2 norm of the gradient, over all parameters.
    pub(crate) fn grad_norm(&self) -> f32 {
        self.entries.iter().flat_map(|e| e.grad.iter()).map(|g| g * g).sum::<f32>().sqrt()
    }

    /// Clips the global gradient norm to `max_norm` (no-op if already
    /// below). Returns the pre-clip norm.
    pub(crate) fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for e in &mut self.entries {
                e.grad.iter_mut().for_each(|g| *g *= scale);
            }
        }
        norm
    }

    /// Iterates over `(ParamId, name)` pairs.
    pub fn iter_ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(|i| ParamId(i as u32))
    }

    /// Serialises all parameter values into a flat snapshot (for
    /// early-stopping "best weights" checkpoints).
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.entries.iter().map(|e| e.data.clone()).collect()
    }

    /// Restores values captured by [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store's layout.
    pub fn restore(&mut self, snapshot: &[Vec<f32>]) {
        assert_eq!(snapshot.len(), self.entries.len(), "snapshot layout mismatch");
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(e.data.len(), s.len(), "snapshot tensor size mismatch for `{}`", e.name);
            e.data.copy_from_slice(s);
        }
    }
}

/// Anything `Tape::backward_into` can accumulate parameter gradients
/// into: the [`ParamStore`] itself ([`crate::Tape::backward`]) or a
/// worker-local [`GradBuffer`] (the data-parallel mini-batch step).
pub(crate) trait GradSink {
    /// Adds `delta` elementwise into the gradient slot of `id`.
    fn accumulate_grad(&mut self, id: ParamId, delta: &[f32]);
}

impl GradSink for ParamStore {
    fn accumulate_grad(&mut self, id: ParamId, delta: &[f32]) {
        ParamStore::accumulate_grad(self, id, delta);
    }
}

/// A detached gradient accumulator with the same layout as a
/// [`ParamStore`], but no weights, optimizer state or RNG.
///
/// The mini-batch step gives each sample its own buffer: workers run
/// forward/backward concurrently into private buffers, then the step
/// reduces them into the store **in sample-index order** via
/// [`ParamStore::accumulate`]. Because each buffer starts
/// at exactly 0.0 and `0.0 + x == x` for every finite `x`, the reduced
/// result is bit-identical to accumulating each sample's leases
/// directly into the store in the same sample order — so the training
/// trajectory does not depend on how many worker threads ran.
#[derive(Debug, Clone)]
pub(crate) struct GradBuffer {
    grads: Vec<Vec<f32>>,
}

impl GradBuffer {
    /// Creates a zeroed buffer matching `store`'s parameter layout.
    pub(crate) fn zeros_like(store: &ParamStore) -> Self {
        GradBuffer { grads: store.entries.iter().map(|e| vec![0.0; e.grad.len()]).collect() }
    }

    /// Read-only view of the accumulated gradient for `id`.
    #[cfg(test)]
    fn grad(&self, id: ParamId) -> &[f32] {
        &self.grads[id.index()]
    }

    /// Whether every accumulated gradient is exactly zero.
    #[cfg(test)]
    fn is_zero(&self) -> bool {
        self.grads.iter().all(|g| g.iter().all(|&v| v == 0.0))
    }
}

impl GradSink for GradBuffer {
    fn accumulate_grad(&mut self, id: ParamId, delta: &[f32]) {
        let g = &mut self.grads[id.index()];
        debug_assert_eq!(g.len(), delta.len());
        for (gi, di) in g.iter_mut().zip(delta) {
            *gi += di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_params() {
        let mut s = ParamStore::new(1);
        let a = s.add_param("a", 2, 3, vec![1.0; 6]);
        assert_eq!(s.shape(a), (2, 3));
        assert_eq!(s.name(a), "a");
        assert_eq!(s.data(a), &[1.0; 6]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_scalars(), 6);
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let mut s1 = ParamStore::new(42);
        let mut s2 = ParamStore::new(42);
        let a1 = s1.add_xavier("w", 8, 8);
        let a2 = s2.add_xavier("w", 8, 8);
        assert_eq!(s1.data(a1), s2.data(a2), "same seed must give same init");
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(s1.data(a1).iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn grad_accumulate_zero_and_clip() {
        let mut s = ParamStore::new(1);
        let a = s.add_zeros("a", 1, 4);
        s.accumulate_grad(a, &[3.0, 0.0, 0.0, 4.0]);
        assert_eq!(s.grad_norm(), 5.0);
        let pre = s.clip_grad_norm(1.0);
        assert_eq!(pre, 5.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
        s.zero_grad();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = ParamStore::new(1);
        let a = s.add_param("a", 1, 2, vec![1.0, 2.0]);
        let snap = s.snapshot();
        s.data_mut(a).copy_from_slice(&[9.0, 9.0]);
        s.restore(&snap);
        assert_eq!(s.data(a), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn bad_shape_panics() {
        let mut s = ParamStore::new(1);
        s.add_param("a", 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn grad_buffer_reduction_is_bit_identical_to_direct_accumulation() {
        let mut direct = ParamStore::new(1);
        let a = direct.add_zeros("a", 1, 3);
        let b = direct.add_zeros("b", 1, 2);
        let mut buffered = direct.clone();

        // Two "samples"; the first leases `a` twice (like a parameter
        // reused across decode steps). Direct path: accumulate in
        // per-sample order straight into the store.
        let s1_a1 = [0.125f32, 0.25, 0.5];
        let s1_a2 = [1e-8, 0.75, -0.5];
        let s2_a = [3.0f32, -2.0, 0.0625];
        let s2_b = [0.1f32, -0.2];
        direct.accumulate_grad(a, &s1_a1);
        direct.accumulate_grad(a, &s1_a2);
        direct.accumulate_grad(a, &s2_a);
        direct.accumulate_grad(b, &s2_b);

        // Buffered path: per-sample buffers reduced in sample order.
        let mut buf1 = GradBuffer::zeros_like(&buffered);
        GradSink::accumulate_grad(&mut buf1, a, &s1_a1);
        GradSink::accumulate_grad(&mut buf1, a, &s1_a2);
        let mut buf2 = GradBuffer::zeros_like(&buffered);
        GradSink::accumulate_grad(&mut buf2, a, &s2_a);
        GradSink::accumulate_grad(&mut buf2, b, &s2_b);
        assert!(!buf1.is_zero());
        buffered.accumulate(&buf1);
        buffered.accumulate(&buf2);

        assert_eq!(direct.grad(a), buffered.grad(a));
        assert_eq!(direct.grad(b), buffered.grad(b));
        assert_eq!(buf2.grad(b), &s2_b);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn grad_buffer_layout_mismatch_panics() {
        let mut s = ParamStore::new(1);
        s.add_zeros("a", 1, 3);
        let buf = GradBuffer::zeros_like(&s);
        s.add_zeros("b", 1, 2);
        s.accumulate(&buf);
    }
}
