//! First-order optimizers stepping a [`ParamStore`].

use crate::params::ParamStore;
use serde::{Deserialize, Serialize};

/// Common interface for optimizers over a parameter store.
pub trait Optimizer {
    /// Applies one update using the gradients currently accumulated in
    /// `store` (does not clear them — call [`ParamStore::zero_grad`]).
    fn step(&mut self, store: &mut ParamStore);
}

/// Adam (Kingma & Ba, 2015) — the optimizer used for every neural model
/// in this workspace.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Serialisable snapshot of the complete optimizer state. Restoring
    /// it with [`Adam::from_state`] and stepping produces bit-identical
    /// updates to the original instance — Adam's first/second moments
    /// and step count are part of the training trajectory, so exact
    /// crash/resume requires persisting them alongside the weights.
    pub fn state(&self) -> AdamState {
        AdamState { m: self.m.clone(), v: self.v.clone(), ..self.scalar_state() }
    }

    /// [`Adam::state`] with empty moment buffers: the hyperparameters
    /// and step count alone, for a checkpoint writer that reads the
    /// moments in place through [`Adam::moments`].
    pub fn scalar_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The first and second moments, one buffer per parameter in
    /// registration order (both empty before the first step).
    pub fn moments(&self) -> (&[Vec<f32>], &[Vec<f32>]) {
        (&self.m, &self.v)
    }

    /// Rebuilds an optimizer from a captured [`AdamState`].
    ///
    /// # Panics
    /// Panics if the moment buffers disagree with each other (a corrupt
    /// snapshot); layout against a concrete store is the caller's check.
    pub fn from_state(s: AdamState) -> Self {
        assert_eq!(s.m.len(), s.v.len(), "Adam state corrupt: m/v tensor counts differ");
        for (m, v) in s.m.iter().zip(&s.v) {
            assert_eq!(m.len(), v.len(), "Adam state corrupt: m/v tensor sizes differ");
        }
        Self { lr: s.lr, beta1: s.beta1, beta2: s.beta2, eps: s.eps, t: s.t, m: s.m, v: s.v }
    }

    /// Whether this state's moment buffers match `store`'s parameter
    /// layout (vacuously true before the first step, when the buffers
    /// are allocated lazily).
    pub fn matches_store(&self, store: &ParamStore) -> bool {
        if self.m.is_empty() && self.t == 0 {
            return true;
        }
        self.m.len() == store.len()
            && store.iter_ids().all(|id| self.m[id.index()].len() == store.data(id).len())
    }
}

/// The full state of an [`Adam`] instance (hyperparameters, step count
/// and both moment vectors), in a serde-friendly shape for training
/// checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabiliser.
    pub eps: f32,
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First moments, one buffer per parameter in registration order.
    pub m: Vec<Vec<f32>>,
    /// Second moments, aligned with `m`.
    pub v: Vec<Vec<f32>>,
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.iter_ids().collect();
        if self.m.len() != ids.len() {
            self.m = ids.iter().map(|&id| vec![0.0; store.data(id).len()]).collect();
            self.v = ids.iter().map(|&id| vec![0.0; store.data(id).len()]).collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (k, &id) in ids.iter().enumerate() {
            let grad = store.grad(id).to_vec();
            let (m, v) = (&mut self.m[k], &mut self.v[k]);
            let data = store.data_mut(id);
            for (((w, g), mi), vi) in data.iter_mut().zip(&grad).zip(m.iter_mut()).zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    fn quadratic_descends<O: Optimizer>(mut opt: O) -> f32 {
        // minimise (w - 3)^2 + (b + 1)^2
        let mut store = ParamStore::new(0);
        let w = store.add_param("w", 1, 1, vec![0.0]);
        let b = store.add_param("b", 1, 1, vec![0.0]);
        for _ in 0..500 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let bv = t.param(&store, b);
            let tw = t.scalar_const(3.0);
            let tb = t.scalar_const(-1.0);
            let d1 = t.sub(wv, tw);
            let d2 = t.sub(bv, tb);
            let s1 = t.mul(d1, d1);
            let s2 = t.mul(d2, d2);
            let loss = t.add(s1, s2);
            store.zero_grad();
            t.backward(loss, &mut store);
            opt.step(&mut store);
        }
        (store.data(w)[0] - 3.0).abs() + (store.data(b)[0] + 1.0).abs()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(quadratic_descends(Adam::new(0.05)) < 1e-3);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        // Train two stores in lockstep: one with a continuously-running
        // Adam, one whose Adam is snapshotted/restored mid-run. The
        // trajectories must agree to the bit — the checkpoint/resume
        // exactness contract at the optimizer level.
        let build = || {
            let mut store = ParamStore::new(9);
            store.add_param("w", 2, 2, vec![0.5, -1.5, 2.0, 0.25]);
            store
        };
        let fake_grad = |store: &mut ParamStore, k: usize| {
            let id = store.iter_ids().next().unwrap();
            let g: Vec<f32> = (0..4).map(|i| ((k * 4 + i) as f32 * 0.37).sin()).collect();
            store.zero_grad();
            store.accumulate_grad(id, &g);
        };
        let mut a_store = build();
        let mut b_store = build();
        let mut a_opt = Adam::new(0.01);
        let mut b_opt = Adam::new(0.01);
        for k in 0..5 {
            fake_grad(&mut a_store, k);
            a_opt.step(&mut a_store);
            fake_grad(&mut b_store, k);
            b_opt.step(&mut b_store);
        }
        // snapshot b through serde (the actual checkpoint path), drop
        // the original and resume from the restored state
        assert!(b_opt.matches_store(&b_store));
        let json = serde_json::to_string(&b_opt.state()).unwrap();
        let mut b_opt = Adam::from_state(serde_json::from_str(&json).unwrap());
        assert_eq!(b_opt.steps(), 5);
        for k in 5..10 {
            fake_grad(&mut a_store, k);
            a_opt.step(&mut a_store);
            fake_grad(&mut b_store, k);
            b_opt.step(&mut b_store);
        }
        let id = a_store.iter_ids().next().unwrap();
        let bits = |s: &ParamStore| s.data(id).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a_store), bits(&b_store), "resumed Adam diverged from uninterrupted");
    }

    #[test]
    fn fresh_adam_state_matches_any_store() {
        let mut store = ParamStore::new(1);
        store.add_zeros("a", 1, 3);
        assert!(Adam::new(0.1).matches_store(&store));
        let mut other = ParamStore::new(1);
        other.add_zeros("a", 1, 4);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        assert!(opt.matches_store(&store));
        assert!(!opt.matches_store(&other), "moment layout mismatch must be detected");
    }
}
