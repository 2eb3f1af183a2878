//! The autodiff tape: a flat arena of tensor nodes plus reverse-mode
//! gradient propagation.
//!
//! Every op is a method on [`Tape`] that appends a node and returns a
//! [`TensorId`]. [`Tape::backward`] seeds the gradient of a scalar loss
//! with 1 and walks the arena in reverse, accumulating into each node's
//! gradient buffer and finally into the [`ParamStore`] for `Param` leaves.
//!
//! # Memory model
//!
//! Storage is split into parallel arenas: `nodes` holds shapes and op
//! metadata, `bufs` holds the value buffers, and `grads` (grad mode
//! only) holds one gradient buffer per node. Nodes reference their
//! value buffer by index, so views ([`Tape::reshape`]) share a buffer
//! instead of copying, and backward can borrow one node's gradient
//! mutably while reading another node's values — no cloning.
//!
//! Every op allocates its output buffer directly, sized exactly, and
//! [`Tape::clear`] drops every buffer. There is no free-list pool: one
//! measured slower than fresh allocation and grew a long-lived serving
//! tape's resident memory with every request. [`Tape::inference`]
//! builds a no-grad tape that skips gradient allocation and op-payload
//! recording entirely; [`Tape::backward`] on such a tape panics.

use crate::kernels;
use crate::params::{ParamId, ParamStore};

/// Numerics tier of an inference tape. `Exact` is the only tier: every
/// kernel is bit-identical to its naive reference, so training is
/// deterministic across thread counts and twin servers byte-match (see
/// DESIGN.md "Numerics policy"). The type remains only for the
/// benchmark's `inference_tape(Numerics::Exact)` calls (`perfbench/`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numerics {
    /// Bit-exact tier.
    Exact,
}

/// Handle to a tensor on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorId(u32);

impl TensorId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Param(ParamId),
    Matmul(TensorId, TensorId),
    Add(TensorId, TensorId),
    AddRow(TensorId, TensorId),
    AddCol(TensorId, TensorId),
    AddOuter(TensorId, TensorId),
    Sub(TensorId, TensorId),
    Mul(TensorId, TensorId),
    MulScalarT(TensorId, TensorId),
    MulRow(TensorId, TensorId),
    Scale(TensorId, f32),
    AddScalar(TensorId),
    Abs(TensorId),
    Relu(TensorId),
    LeakyRelu(TensorId, f32),
    Tanh(TensorId),
    Sigmoid(TensorId),
    Exp(TensorId),
    Ln(TensorId),
    ConcatCols(Vec<TensorId>),
    ConcatRows(Vec<TensorId>),
    GatherRows(TensorId, Vec<usize>),
    RepeatRows(TensorId, usize),
    RepeatInterleaveRows(TensorId, usize),
    Transpose(TensorId),
    Reshape(TensorId),
    SumAll(TensorId),
    MeanAll(TensorId),
    RowSum(TensorId),
    RowMean(TensorId),
    MaskedSoftmaxRows(TensorId, Vec<bool>),
    MaskedLogSoftmaxRows(TensorId, Vec<bool>),
    PickElements(TensorId, Vec<(usize, usize)>),
    LayerNormRows(TensorId, f32),
}

#[derive(Debug)]
struct Node {
    rows: usize,
    cols: usize,
    /// Index into `Tape::bufs` of this node's value buffer. Views
    /// (reshape) share the producing node's buffer index.
    buf: u32,
    op: Op,
}

/// A single forward pass: an append-only arena of tensors and the ops
/// that produced them. See the module docs for the memory model.
#[derive(Debug)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Value buffers, indexed by `Node::buf`.
    bufs: Vec<Vec<f32>>,
    /// One gradient buffer per node (grad mode only; empty otherwise).
    grads: Vec<Vec<f32>>,
    grad_enabled: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    fn with_grad(grad_enabled: bool) -> Self {
        Self { nodes: Vec::new(), bufs: Vec::new(), grads: Vec::new(), grad_enabled }
    }

    /// Creates an empty tape that records gradients.
    pub fn new() -> Self {
        Self::with_grad(true)
    }

    /// Creates an empty no-grad tape for inference: gradient buffers
    /// are never allocated and op payloads (concat lists, gather
    /// indices, softmax masks) are not recorded. [`Tape::backward`] and
    /// [`Tape::grad`] panic on such a tape.
    pub fn inference() -> Self {
        Self::with_grad(false)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether this tape records gradients (false for [`Tape::inference`]).
    pub fn is_grad_enabled(&self) -> bool {
        self.grad_enabled
    }

    /// Forgets all nodes and drops their data and gradient buffers, so
    /// a cleared tape holds no tensor memory. Reusing a cleared tape is
    /// bit-identical to using a fresh one.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.bufs.clear();
        self.grads.clear();
    }

    fn push(&mut self, rows: usize, cols: usize, data: Vec<f32>, op: Op) -> TensorId {
        debug_assert_eq!(data.len(), rows * cols);
        let buf = self.bufs.len() as u32;
        self.bufs.push(data);
        self.push_view(rows, cols, buf, op)
    }

    /// Appends a node that references an existing buffer (zero-copy
    /// views). In no-grad mode ops are dropped in favour of `Leaf`.
    fn push_view(&mut self, rows: usize, cols: usize, buf: u32, op: Op) -> TensorId {
        let id = TensorId(self.nodes.len() as u32);
        let op = if self.grad_enabled {
            self.grads.push(vec![0.0; rows * cols]);
            op
        } else {
            Op::Leaf
        };
        self.nodes.push(Node { rows, cols, buf, op });
        id
    }

    /// Buffer index of a tensor's values.
    fn bufi(&self, t: TensorId) -> usize {
        self.nodes[t.idx()].buf as usize
    }

    /// Shape of a tensor as `(rows, cols)`.
    pub fn shape(&self, t: TensorId) -> (usize, usize) {
        let n = &self.nodes[t.idx()];
        (n.rows, n.cols)
    }

    /// Read-only view of a tensor's values.
    pub fn data(&self, t: TensorId) -> &[f32] {
        &self.bufs[self.bufi(t)]
    }

    /// Read-only view of a tensor's gradient (valid after `backward`).
    pub fn grad(&self, t: TensorId) -> &[f32] {
        assert!(self.grad_enabled, "grad() on a no-grad (inference) tape");
        &self.grads[t.idx()]
    }

    /// The single value of a `[1,1]` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1×1`.
    pub fn scalar(&self, t: TensorId) -> f32 {
        assert_eq!(self.shape(t), (1, 1), "scalar() on a non-1x1 tensor");
        self.data(t)[0]
    }

    // ---------------------------------------------------------------
    // Leaves
    // ---------------------------------------------------------------

    /// Records a constant (non-differentiable-into) input tensor.
    pub fn constant(&mut self, rows: usize, cols: usize, data: Vec<f32>) -> TensorId {
        assert_eq!(data.len(), rows * cols, "constant data length mismatch");
        self.push(rows, cols, data, Op::Leaf)
    }

    /// Records a `[1,1]` constant.
    pub fn scalar_const(&mut self, v: f32) -> TensorId {
        self.push(1, 1, vec![v], Op::Leaf)
    }

    /// Leases a parameter from `store` onto this tape. Gradients flowing
    /// into the returned tensor are accumulated back into the store by
    /// [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> TensorId {
        let (rows, cols) = store.shape(id);
        let out = store.data(id).to_vec();
        self.push(rows, cols, out, Op::Param(id))
    }

    // ---------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------

    /// Matrix product `a @ b`: `[r,k] x [k,c] -> [r,c]`, via the
    /// cache-blocked kernel in [`crate::kernels`].
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (ar, ak) = self.shape(a);
        let (bk, bc) = self.shape(b);
        assert_eq!(ak, bk, "matmul inner dim mismatch: [{ar},{ak}] x [{bk},{bc}]");
        let mut out = vec![0.0; ar * bc];
        kernels::matmul(self.data(a), self.data(b), &mut out, ar, ak, bc);
        self.push(ar, bc, out, Op::Matmul(a, b))
    }

    /// Transpose `[r,c] -> [c,r]`.
    pub fn transpose(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let mut out = vec![0.0; r * c];
        let da = self.data(a);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = da[i * c + j];
            }
        }
        self.push(c, r, out, Op::Transpose(a))
    }

    /// Reinterprets the data with a new shape (`rows*cols` must match).
    /// Zero-copy: the view node shares the source buffer.
    pub fn reshape(&mut self, a: TensorId, rows: usize, cols: usize) -> TensorId {
        let (r, c) = self.shape(a);
        assert_eq!(r * c, rows * cols, "reshape element count mismatch");
        let buf = self.nodes[a.idx()].buf;
        self.push_view(rows, cols, buf, Op::Reshape(a))
    }

    // ---------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------

    fn binary_same_shape(&mut self, a: TensorId, b: TensorId, op_name: &str) -> (usize, usize) {
        let sa = self.shape(a);
        let sb = self.shape(b);
        assert_eq!(sa, sb, "{op_name} shape mismatch: {sa:?} vs {sb:?}");
        sa
    }

    /// Zips two same-shape tensors through `f` into a new buffer.
    fn binary(
        &mut self,
        a: TensorId,
        b: TensorId,
        op: Op,
        name: &str,
        f: impl Fn(f32, f32) -> f32,
    ) -> TensorId {
        let (r, c) = self.binary_same_shape(a, b, name);
        let out = self.data(a).iter().zip(self.data(b)).map(|(&x, &y)| f(x, y)).collect();
        self.push(r, c, out, op)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Add(a, b), "add", |x, y| x + y)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Sub(a, b), "sub", |x, y| x - y)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(a, b, Op::Mul(a, b), "mul", |x, y| x * y)
    }

    /// Broadcast add of a row vector: `[r,c] + [1,c]`.
    #[allow(clippy::needless_range_loop)] // explicit i,j indexing matches the math
    pub fn add_row(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!((br, bc), (1, c), "add_row expects [1,{c}], got [{br},{bc}]");
        let mut out = Vec::with_capacity(r * c);
        let da = self.data(a);
        let db = self.data(b);
        for i in 0..r {
            for j in 0..c {
                out.push(da[i * c + j] + db[j]);
            }
        }
        self.push(r, c, out, Op::AddRow(a, b))
    }

    /// Broadcast add of a column vector: `[r,c] + [r,1]`.
    pub fn add_col(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!((br, bc), (r, 1), "add_col expects [{r},1], got [{br},{bc}]");
        let mut out = Vec::with_capacity(r * c);
        let da = self.data(a);
        let db = self.data(b);
        for i in 0..r {
            for j in 0..c {
                out.push(da[i * c + j] + db[i]);
            }
        }
        self.push(r, c, out, Op::AddCol(a, b))
    }

    /// Outer sum of two column vectors: `a [r,1] ⊕ b [c,1] -> [r,c]`,
    /// `out[i][j] = a[i] + b[j]`. This is how pairwise attention logits
    /// (`a_left·h_i + a_right·h_j`) are vectorised.
    pub fn add_outer(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (r, ac) = self.shape(a);
        let (c, bc) = self.shape(b);
        assert_eq!(ac, 1, "add_outer lhs must be a column vector");
        assert_eq!(bc, 1, "add_outer rhs must be a column vector");
        rtp_obs::counter!("tensor.op.add_outer.calls").inc();
        rtp_obs::counter!("tensor.op.add_outer.flops").add((r * c) as u64);
        let mut out = Vec::with_capacity(r * c);
        let da = self.data(a);
        let db = self.data(b);
        for &ai in da.iter().take(r) {
            for &bj in db.iter().take(c) {
                out.push(ai + bj);
            }
        }
        self.push(r, c, out, Op::AddOuter(a, b))
    }

    /// Multiplies every element of `a` by a learnable `[1,1]` scalar `s`.
    pub fn mul_scalar_t(&mut self, a: TensorId, s: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        assert_eq!(self.shape(s), (1, 1), "mul_scalar_t scale must be 1x1");
        let sv = self.data(s)[0];
        let out = self.data(a).iter().map(|x| x * sv).collect();
        self.push(r, c, out, Op::MulScalarT(a, s))
    }

    /// Broadcast elementwise multiply by a row vector: `[r,c] * [1,c]`
    /// (layer-norm gain, feature gates).
    pub fn mul_row(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!((br, bc), (1, c), "mul_row expects [1,{c}], got [{br},{bc}]");
        let mut out = Vec::with_capacity(r * c);
        let da = self.data(a);
        let db = self.data(b);
        for i in 0..r {
            for j in 0..c {
                out.push(da[i * c + j] * db[j]);
            }
        }
        self.push(r, c, out, Op::MulRow(a, b))
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, a: TensorId, k: f32) -> TensorId {
        let (r, c) = self.shape(a);
        let out = self.data(a).iter().map(|x| x * k).collect();
        self.push(r, c, out, Op::Scale(a, k))
    }

    /// Adds a compile-time constant to every element.
    pub fn add_scalar(&mut self, a: TensorId, k: f32) -> TensorId {
        let (r, c) = self.shape(a);
        let out = self.data(a).iter().map(|x| x + k).collect();
        self.push(r, c, out, Op::AddScalar(a))
    }

    /// Elementwise negation (`scale(a, -1)`).
    pub fn neg(&mut self, a: TensorId) -> TensorId {
        self.scale(a, -1.0)
    }

    // ---------------------------------------------------------------
    // Activations and pointwise nonlinearities
    // ---------------------------------------------------------------

    fn unary(&mut self, a: TensorId, op: Op, f: impl Fn(f32) -> f32) -> TensorId {
        let (r, c) = self.shape(a);
        let out = self.data(a).iter().map(|&x| f(x)).collect();
        self.push(r, c, out, op)
    }

    /// Elementwise absolute value.
    pub fn abs(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Abs(a), f32::abs)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Elementwise LeakyReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: TensorId, slope: f32) -> TensorId {
        self.unary(a, Op::LeakyRelu(a, slope), move |x| if x > 0.0 { x } else { slope * x })
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Tanh(a), f32::tanh)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Sigmoid(a), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Exp(a), f32::exp)
    }

    /// Elementwise natural logarithm. Inputs must be strictly positive.
    pub fn ln(&mut self, a: TensorId) -> TensorId {
        self.unary(a, Op::Ln(a), f32::ln)
    }

    // ---------------------------------------------------------------
    // Structural ops
    // ---------------------------------------------------------------

    /// Concatenates tensors with equal row counts along the column axis.
    pub fn concat_cols(&mut self, parts: &[TensorId]) -> TensorId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let (r, _) = self.shape(parts[0]);
        let total_c: usize = parts
            .iter()
            .map(|&p| {
                let (pr, pc) = self.shape(p);
                assert_eq!(pr, r, "concat_cols row mismatch");
                pc
            })
            .sum();
        let mut out = Vec::with_capacity(r * total_c);
        for i in 0..r {
            for &p in parts {
                let (_, pc) = self.shape(p);
                let d = self.data(p);
                out.extend_from_slice(&d[i * pc..(i + 1) * pc]);
            }
        }
        let op = if self.grad_enabled { Op::ConcatCols(parts.to_vec()) } else { Op::Leaf };
        self.push(r, total_c, out, op)
    }

    /// Concatenates tensors with equal column counts along the row axis.
    pub fn concat_rows(&mut self, parts: &[TensorId]) -> TensorId {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let (_, c) = self.shape(parts[0]);
        let total_r: usize = parts
            .iter()
            .map(|&p| {
                let (pr, pc) = self.shape(p);
                assert_eq!(pc, c, "concat_rows column mismatch");
                pr
            })
            .sum();
        let mut out = Vec::with_capacity(total_r * c);
        for &p in parts {
            out.extend_from_slice(self.data(p));
        }
        let op = if self.grad_enabled { Op::ConcatRows(parts.to_vec()) } else { Op::Leaf };
        self.push(total_r, c, out, op)
    }

    /// Gathers rows of `a` by index (rows may repeat — embedding lookup,
    /// route-ordered re-sorting for the SortLSTM).
    pub fn gather_rows(&mut self, a: TensorId, indices: &[usize]) -> TensorId {
        let (r, c) = self.shape(a);
        rtp_obs::counter!("tensor.op.gather_rows.calls").inc();
        // read + write of every gathered row, in f32 bytes
        rtp_obs::counter!("tensor.op.gather_rows.bytes").add((2 * indices.len() * c * 4) as u64);
        let mut out = Vec::with_capacity(indices.len() * c);
        let da = self.data(a);
        for &i in indices {
            assert!(i < r, "gather_rows index {i} out of bounds for {r} rows");
            out.extend_from_slice(&da[i * c..(i + 1) * c]);
        }
        let op = if self.grad_enabled { Op::GatherRows(a, indices.to_vec()) } else { Op::Leaf };
        self.push(indices.len(), c, out, op)
    }

    /// Extracts a single row as a `[1,c]` tensor.
    pub fn row(&mut self, a: TensorId, i: usize) -> TensorId {
        self.gather_rows(a, &[i])
    }

    /// Tiles the whole matrix `k` times vertically: `[r,c] -> [k*r,c]`.
    pub fn repeat_rows(&mut self, a: TensorId, k: usize) -> TensorId {
        let (r, c) = self.shape(a);
        let mut out = Vec::with_capacity(k * r * c);
        let da = self.data(a);
        for _ in 0..k {
            out.extend_from_slice(da);
        }
        self.push(k * r, c, out, Op::RepeatRows(a, k))
    }

    /// Repeats each row `k` times consecutively: `[r,c] -> [r*k,c]`.
    pub fn repeat_interleave_rows(&mut self, a: TensorId, k: usize) -> TensorId {
        let (r, c) = self.shape(a);
        let mut out = Vec::with_capacity(r * k * c);
        let da = self.data(a);
        for i in 0..r {
            for _ in 0..k {
                out.extend_from_slice(&da[i * c..(i + 1) * c]);
            }
        }
        self.push(r * k, c, out, Op::RepeatInterleaveRows(a, k))
    }

    // ---------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------

    /// Sum of all elements -> `[1,1]`.
    pub fn sum_all(&mut self, a: TensorId) -> TensorId {
        let out = vec![self.data(a).iter().sum()];
        self.push(1, 1, out, Op::SumAll(a))
    }

    /// Mean of all elements -> `[1,1]`.
    pub fn mean_all(&mut self, a: TensorId) -> TensorId {
        let da = self.data(a);
        let out = vec![da.iter().sum::<f32>() / da.len().max(1) as f32];
        self.push(1, 1, out, Op::MeanAll(a))
    }

    /// Per-row sum: `[r,c] -> [r,1]`.
    pub fn row_sum(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let da = self.data(a);
        let out = (0..r).map(|i| da[i * c..(i + 1) * c].iter().sum::<f32>()).collect();
        self.push(r, 1, out, Op::RowSum(a))
    }

    /// Per-row mean: `[r,c] -> [r,1]`.
    pub fn row_mean(&mut self, a: TensorId) -> TensorId {
        let (r, c) = self.shape(a);
        let da = self.data(a);
        let out = (0..r).map(|i| da[i * c..(i + 1) * c].iter().sum::<f32>() / c as f32).collect();
        self.push(r, 1, out, Op::RowMean(a))
    }

    // ---------------------------------------------------------------
    // Softmax family
    // ---------------------------------------------------------------

    /// Row-wise softmax over the entries where `mask` is `true`; masked
    /// entries get probability 0. A fully masked row yields all zeros.
    ///
    /// `mask.len()` must equal `rows*cols`. This single op covers both
    /// graph-attention (adjacency mask) and pointer decoding
    /// (visited-node mask).
    pub fn masked_softmax_rows(&mut self, a: TensorId, mask: &[bool]) -> TensorId {
        let (r, c) = self.shape(a);
        assert_eq!(mask.len(), r * c, "mask length mismatch");
        rtp_obs::counter!("tensor.op.masked_softmax_rows.calls").inc();
        // per element: max-scan, subtract, exp (~2 flop), sum, divide
        rtp_obs::counter!("tensor.op.masked_softmax_rows.flops").add((5 * r * c) as u64);
        let mut out = vec![0.0; r * c];
        let da = self.data(a);
        for i in 0..r {
            softmax_row(
                &da[i * c..(i + 1) * c],
                &mask[i * c..(i + 1) * c],
                &mut out[i * c..(i + 1) * c],
            );
        }
        let op = if self.grad_enabled { Op::MaskedSoftmaxRows(a, mask.to_vec()) } else { Op::Leaf };
        self.push(r, c, out, op)
    }

    /// Row-wise log-softmax over unmasked entries; masked entries are set
    /// to `f32::NEG_INFINITY` in the output but receive zero gradient.
    /// Use with [`Tape::pick_elements`] for numerically stable
    /// cross-entropy.
    pub fn masked_log_softmax_rows(&mut self, a: TensorId, mask: &[bool]) -> TensorId {
        let (r, c) = self.shape(a);
        assert_eq!(mask.len(), r * c, "mask length mismatch");
        let mut out = vec![f32::NEG_INFINITY; r * c];
        let da = self.data(a);
        for i in 0..r {
            log_softmax_row(
                &da[i * c..(i + 1) * c],
                &mask[i * c..(i + 1) * c],
                &mut out[i * c..(i + 1) * c],
            );
        }
        let op =
            if self.grad_enabled { Op::MaskedLogSoftmaxRows(a, mask.to_vec()) } else { Op::Leaf };
        self.push(r, c, out, op)
    }

    /// Picks elements `(row, col)` into a `[k,1]` column vector.
    pub fn pick_elements(&mut self, a: TensorId, coords: &[(usize, usize)]) -> TensorId {
        let (r, c) = self.shape(a);
        let mut out = Vec::with_capacity(coords.len());
        let da = self.data(a);
        for &(i, j) in coords {
            assert!(i < r && j < c, "pick_elements ({i},{j}) out of bounds [{r},{c}]");
            out.push(da[i * c + j]);
        }
        let op = if self.grad_enabled { Op::PickElements(a, coords.to_vec()) } else { Op::Leaf };
        self.push(coords.len(), 1, out, op)
    }

    /// Row-wise layer normalisation (zero mean, unit variance per row).
    /// Affine gain/bias, when wanted, are applied with [`Tape::mul_row`] /
    /// [`Tape::add_row`] on `[1,c]` parameters.
    pub fn layer_norm_rows(&mut self, a: TensorId, eps: f32) -> TensorId {
        let (r, c) = self.shape(a);
        let mut out = vec![0.0; r * c];
        let da = self.data(a);
        for i in 0..r {
            let row = &da[i * c..(i + 1) * c];
            let mean = row.iter().sum::<f32>() / c as f32;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / c as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for j in 0..c {
                out[i * c + j] = (row[j] - mean) * inv;
            }
        }
        self.push(r, c, out, Op::LayerNormRows(a, eps))
    }

    // ---------------------------------------------------------------
    // Loss helpers
    // ---------------------------------------------------------------

    /// Mean absolute error between `pred` and `target` (same shape) ->
    /// `[1,1]`. Used for the time losses (Eqs. 39–40 of the paper).
    pub fn mae_loss(&mut self, pred: TensorId, target: TensorId) -> TensorId {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean_all(a)
    }

    /// Mean squared error -> `[1,1]`.
    pub fn mse_loss(&mut self, pred: TensorId, target: TensorId) -> TensorId {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    /// Cross-entropy of a single decoding step: `-log softmax(logits)[target]`
    /// restricted to unmasked candidates. `logits` is `[1,c]`.
    pub fn masked_cross_entropy(
        &mut self,
        logits: TensorId,
        mask: &[bool],
        target: usize,
    ) -> TensorId {
        let (r, c) = self.shape(logits);
        assert_eq!(r, 1, "masked_cross_entropy expects [1,c] logits");
        assert!(target < c && mask[target], "cross-entropy target must be an unmasked candidate");
        let logp = self.masked_log_softmax_rows(logits, mask);
        let picked = self.pick_elements(logp, &[(0, target)]);
        self.scale(picked, -1.0)
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Reverse-mode gradient propagation from scalar `loss` (must be
    /// `[1,1]`). Parameter gradients are **accumulated** into `store`
    /// (call [`ParamStore::zero_grad`] when starting a new step).
    pub fn backward(&mut self, loss: TensorId, store: &mut ParamStore) {
        self.backward_into(loss, store);
    }

    /// Like [`Tape::backward`], but accumulates parameter gradients
    /// into any [`crate::GradSink`] — a worker-local
    /// [`crate::GradBuffer`] in data-parallel training, or the
    /// [`ParamStore`] itself. The propagation itself is identical;
    /// only the destination of `Op::Param` gradients differs.
    pub fn backward_into<S: crate::GradSink>(&mut self, loss: TensorId, store: &mut S) {
        assert!(self.grad_enabled, "backward on a no-grad (inference) tape");
        {
            let n = &self.nodes[loss.idx()];
            assert_eq!((n.rows, n.cols), (1, 1), "backward() expects a scalar loss");
            self.grads[loss.idx()][0] += 1.0;
        }
        for i in (0..=loss.idx()).rev() {
            // Take the node's gradient out so input gradients can be
            // borrowed mutably while it is read. Ops are dispatched by
            // reference: payload Vecs (concat lists, gather indices,
            // masks) are never cloned, and because `nodes`, `bufs` and
            // `grads` are separate fields, input values are read
            // straight from `bufs` while `grads` is written — no data
            // clones either.
            let grad = std::mem::take(&mut self.grads[i]);
            if grad.iter().all(|&g| g == 0.0) {
                self.grads[i] = grad;
                continue;
            }
            let (rows, cols) = (self.nodes[i].rows, self.nodes[i].cols);
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(pid) => store.accumulate_grad(*pid, &grad),
                &Op::Matmul(a, b) => {
                    let (ar, ak) = self.shape(a);
                    let (_, bc) = self.shape(b);
                    let (ba, bb) = (self.bufi(a), self.bufi(b));
                    kernels::matmul_grad_a(
                        &grad,
                        &self.bufs[bb],
                        &mut self.grads[a.idx()],
                        ar,
                        ak,
                        bc,
                    );
                    kernels::matmul_grad_b(
                        &self.bufs[ba],
                        &grad,
                        &mut self.grads[b.idx()],
                        ar,
                        ak,
                        bc,
                    );
                }
                &Op::Add(a, b) => {
                    add_assign(&mut self.grads[a.idx()], &grad);
                    add_assign(&mut self.grads[b.idx()], &grad);
                }
                &Op::Sub(a, b) => {
                    add_assign(&mut self.grads[a.idx()], &grad);
                    sub_assign(&mut self.grads[b.idx()], &grad);
                }
                &Op::Mul(a, b) => {
                    let (ba, bb) = (self.bufi(a), self.bufi(b));
                    mul_add_assign(&mut self.grads[a.idx()], &grad, &self.bufs[bb]);
                    mul_add_assign(&mut self.grads[b.idx()], &grad, &self.bufs[ba]);
                }
                &Op::AddRow(a, b) => {
                    add_assign(&mut self.grads[a.idx()], &grad);
                    let gb = &mut self.grads[b.idx()];
                    for i2 in 0..rows {
                        for j in 0..cols {
                            gb[j] += grad[i2 * cols + j];
                        }
                    }
                }
                &Op::AddCol(a, b) => {
                    add_assign(&mut self.grads[a.idx()], &grad);
                    let gb = &mut self.grads[b.idx()];
                    for i2 in 0..rows {
                        for j in 0..cols {
                            gb[i2] += grad[i2 * cols + j];
                        }
                    }
                }
                &Op::AddOuter(a, b) => {
                    {
                        let ga = &mut self.grads[a.idx()];
                        for i2 in 0..rows {
                            ga[i2] += grad[i2 * cols..(i2 + 1) * cols].iter().sum::<f32>();
                        }
                    }
                    {
                        let gb = &mut self.grads[b.idx()];
                        for j in 0..cols {
                            for i2 in 0..rows {
                                gb[j] += grad[i2 * cols + j];
                            }
                        }
                    }
                }
                &Op::MulScalarT(a, s) => {
                    let sv = self.bufs[self.bufi(s)][0];
                    for (g, gr) in self.grads[a.idx()].iter_mut().zip(&grad) {
                        *g += gr * sv;
                    }
                    let ba = self.bufi(a);
                    let gs: f32 = grad.iter().zip(&self.bufs[ba]).map(|(g, x)| g * x).sum();
                    self.grads[s.idx()][0] += gs;
                }
                &Op::MulRow(a, b) => {
                    let (ba, bb) = (self.bufi(a), self.bufi(b));
                    {
                        let (ga, db) = (&mut self.grads[a.idx()], &self.bufs[bb]);
                        for i2 in 0..rows {
                            for j in 0..cols {
                                ga[i2 * cols + j] += grad[i2 * cols + j] * db[j];
                            }
                        }
                    }
                    {
                        let (gb, da) = (&mut self.grads[b.idx()], &self.bufs[ba]);
                        for i2 in 0..rows {
                            for j in 0..cols {
                                gb[j] += grad[i2 * cols + j] * da[i2 * cols + j];
                            }
                        }
                    }
                }
                &Op::Scale(a, k) => {
                    for (g, gr) in self.grads[a.idx()].iter_mut().zip(&grad) {
                        *g += gr * k;
                    }
                }
                &Op::AddScalar(a) => add_assign(&mut self.grads[a.idx()], &grad),
                &Op::Abs(a) => {
                    let ba = self.bufi(a);
                    let (ga, da) = (&mut self.grads[a.idx()], &self.bufs[ba]);
                    for ((g, gr), x) in ga.iter_mut().zip(&grad).zip(da) {
                        *g += gr * if *x >= 0.0 { 1.0 } else { -1.0 };
                    }
                }
                &Op::Relu(a) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for ((g, gr), o) in ga.iter_mut().zip(&grad).zip(out) {
                        if *o > 0.0 {
                            *g += gr;
                        }
                    }
                }
                &Op::LeakyRelu(a, slope) => {
                    let ba = self.bufi(a);
                    let (ga, da) = (&mut self.grads[a.idx()], &self.bufs[ba]);
                    for ((g, gr), x) in ga.iter_mut().zip(&grad).zip(da) {
                        *g += gr * if *x > 0.0 { 1.0 } else { slope };
                    }
                }
                &Op::Tanh(a) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for ((g, gr), o) in ga.iter_mut().zip(&grad).zip(out) {
                        *g += gr * (1.0 - o * o);
                    }
                }
                &Op::Sigmoid(a) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for ((g, gr), o) in ga.iter_mut().zip(&grad).zip(out) {
                        *g += gr * o * (1.0 - o);
                    }
                }
                &Op::Exp(a) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for ((g, gr), o) in ga.iter_mut().zip(&grad).zip(out) {
                        *g += gr * o;
                    }
                }
                &Op::Ln(a) => {
                    let ba = self.bufi(a);
                    let (ga, da) = (&mut self.grads[a.idx()], &self.bufs[ba]);
                    for ((g, gr), x) in ga.iter_mut().zip(&grad).zip(da) {
                        *g += gr / x;
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut col_off = 0;
                    for &p in parts {
                        let (pr, pc) = self.shape(p);
                        let gp = &mut self.grads[p.idx()];
                        for i2 in 0..pr {
                            for j in 0..pc {
                                gp[i2 * pc + j] += grad[i2 * cols + col_off + j];
                            }
                        }
                        col_off += pc;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut row_off = 0;
                    for &p in parts {
                        let (pr, pc) = self.shape(p);
                        let gp = &mut self.grads[p.idx()];
                        for i2 in 0..pr {
                            for j in 0..pc {
                                gp[i2 * pc + j] += grad[(row_off + i2) * cols + j];
                            }
                        }
                        row_off += pr;
                    }
                }
                Op::GatherRows(a, indices) => {
                    let ga = &mut self.grads[a.idx()];
                    for (k, &src) in indices.iter().enumerate() {
                        for j in 0..cols {
                            ga[src * cols + j] += grad[k * cols + j];
                        }
                    }
                }
                &Op::RepeatRows(a, k) => {
                    let (ar, _) = self.shape(a);
                    let ga = &mut self.grads[a.idx()];
                    for rep in 0..k {
                        for i2 in 0..ar {
                            for j in 0..cols {
                                ga[i2 * cols + j] += grad[(rep * ar + i2) * cols + j];
                            }
                        }
                    }
                }
                &Op::RepeatInterleaveRows(a, k) => {
                    let (ar, _) = self.shape(a);
                    let ga = &mut self.grads[a.idx()];
                    for i2 in 0..ar {
                        for rep in 0..k {
                            for j in 0..cols {
                                ga[i2 * cols + j] += grad[(i2 * k + rep) * cols + j];
                            }
                        }
                    }
                }
                &Op::Transpose(a) => {
                    let ga = &mut self.grads[a.idx()];
                    // out is [rows, cols]; a is [cols, rows]
                    for i2 in 0..rows {
                        for j in 0..cols {
                            ga[j * rows + i2] += grad[i2 * cols + j];
                        }
                    }
                }
                &Op::Reshape(a) => add_assign(&mut self.grads[a.idx()], &grad),
                &Op::SumAll(a) => {
                    let g = grad[0];
                    self.grads[a.idx()].iter_mut().for_each(|x| *x += g);
                }
                &Op::MeanAll(a) => {
                    let (ar, ac) = self.shape(a);
                    let g = grad[0] / (ar * ac).max(1) as f32;
                    self.grads[a.idx()].iter_mut().for_each(|x| *x += g);
                }
                &Op::RowSum(a) => {
                    let (_, ac) = self.shape(a);
                    let ga = &mut self.grads[a.idx()];
                    for i2 in 0..rows {
                        for j in 0..ac {
                            ga[i2 * ac + j] += grad[i2];
                        }
                    }
                }
                &Op::RowMean(a) => {
                    let (_, ac) = self.shape(a);
                    let ga = &mut self.grads[a.idx()];
                    for i2 in 0..rows {
                        for j in 0..ac {
                            ga[i2 * ac + j] += grad[i2] / ac as f32;
                        }
                    }
                }
                Op::MaskedSoftmaxRows(a, mask) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for i2 in 0..rows {
                        let p = &out[i2 * cols..(i2 + 1) * cols];
                        let g = &grad[i2 * cols..(i2 + 1) * cols];
                        let m = &mask[i2 * cols..(i2 + 1) * cols];
                        let dot: f32 = p.iter().zip(g).map(|(pi, gi)| pi * gi).sum();
                        for j in 0..cols {
                            if m[j] {
                                ga[i2 * cols + j] += p[j] * (g[j] - dot);
                            }
                        }
                    }
                }
                Op::MaskedLogSoftmaxRows(a, mask) => {
                    let bo = self.nodes[i].buf as usize;
                    let (ga, out) = (&mut self.grads[a.idx()], &self.bufs[bo]);
                    for i2 in 0..rows {
                        let lp = &out[i2 * cols..(i2 + 1) * cols];
                        let g = &grad[i2 * cols..(i2 + 1) * cols];
                        let m = &mask[i2 * cols..(i2 + 1) * cols];
                        let gsum: f32 = (0..cols).filter(|&j| m[j]).map(|j| g[j]).sum();
                        for j in 0..cols {
                            if m[j] {
                                ga[i2 * cols + j] += g[j] - lp[j].exp() * gsum;
                            }
                        }
                    }
                }
                Op::PickElements(a, coords) => {
                    let (_, ac) = self.shape(*a);
                    let ga = &mut self.grads[a.idx()];
                    for (k, &(i2, j)) in coords.iter().enumerate() {
                        ga[i2 * ac + j] += grad[k];
                    }
                }
                &Op::LayerNormRows(a, eps) => {
                    let ba = self.bufi(a);
                    let (ga, da) = (&mut self.grads[a.idx()], &self.bufs[ba]);
                    for i2 in 0..rows {
                        let row = &da[i2 * cols..(i2 + 1) * cols];
                        let g = &grad[i2 * cols..(i2 + 1) * cols];
                        let c = cols as f32;
                        let mean = row.iter().sum::<f32>() / c;
                        let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / c;
                        let inv = 1.0 / (var + eps).sqrt();
                        let g_mean = g.iter().sum::<f32>() / c;
                        let gx_mean: f32 =
                            row.iter().zip(g).map(|(x, gi)| gi * (x - mean) * inv).sum::<f32>() / c;
                        for j in 0..cols {
                            let xhat = (row[j] - mean) * inv;
                            ga[i2 * cols + j] += inv * (g[j] - g_mean - xhat * gx_mean);
                        }
                    }
                }
            }
            self.grads[i] = grad;
        }
    }
}

// -------------------------------------------------------------------
// free helpers
// -------------------------------------------------------------------

fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

fn sub_assign(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d -= s;
    }
}

fn mul_add_assign(dst: &mut [f32], g: &[f32], other: &[f32]) {
    for ((d, gi), o) in dst.iter_mut().zip(g).zip(other) {
        *d += gi * o;
    }
}

fn softmax_row(x: &[f32], mask: &[bool], out: &mut [f32]) {
    let mut max = f32::NEG_INFINITY;
    for (v, &m) in x.iter().zip(mask) {
        if m && *v > max {
            max = *v;
        }
    }
    if max == f32::NEG_INFINITY {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    let mut sum = 0.0;
    for ((o, v), &m) in out.iter_mut().zip(x).zip(mask) {
        if m {
            *o = (v - max).exp();
            sum += *o;
        } else {
            *o = 0.0;
        }
    }
    if sum > 0.0 {
        out.iter_mut().for_each(|o| *o /= sum);
    }
}

fn log_softmax_row(x: &[f32], mask: &[bool], out: &mut [f32]) {
    let mut max = f32::NEG_INFINITY;
    for (v, &m) in x.iter().zip(mask) {
        if m && *v > max {
            max = *v;
        }
    }
    if max == f32::NEG_INFINITY {
        return; // all entries stay -inf
    }
    let mut sum = 0.0f32;
    for (v, &m) in x.iter().zip(mask) {
        if m {
            sum += (v - max).exp();
        }
    }
    let log_z = max + sum.ln();
    for ((o, v), &m) in out.iter_mut().zip(x).zip(mask) {
        if m {
            *o = v - log_z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    #[test]
    fn matmul_forward() {
        let mut t = Tape::new();
        let a = t.constant(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t.constant(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = t.matmul(a, b);
        assert_eq!(t.shape(c), (2, 2));
        assert_eq!(t.data(c), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A @ B); dL/dA = ones @ B^T, dL/dB = A^T @ ones
        let mut store = ParamStore::new(0);
        let pa = store.add_param("a", 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let pb = store.add_param("b", 2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut t = Tape::new();
        let a = t.param(&store, pa);
        let b = t.param(&store, pb);
        let c = t.matmul(a, b);
        let l = t.sum_all(c);
        t.backward(l, &mut store);
        assert_eq!(store.grad(pa), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(store.grad(pb), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let a = t.constant(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let mask = vec![true, true, false, true, true, true];
        let s = t.masked_softmax_rows(a, &mask);
        let d = t.data(s);
        assert!((d[0] + d[1] - 1.0).abs() < 1e-6);
        assert_eq!(d[2], 0.0, "masked entry must have zero probability");
        assert!((d[3] + d[4] + d[5] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fully_masked_softmax_row_is_zero() {
        let mut t = Tape::new();
        let a = t.constant(1, 3, vec![1.0, 2.0, 3.0]);
        let s = t.masked_softmax_rows(a, &[false, false, false]);
        assert_eq!(t.data(s), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut store = ParamStore::new(0);
        let p = store.add_param("logits", 1, 4, vec![0.1, 0.2, 0.3, 0.4]);
        let mut t = Tape::new();
        let logits = t.param(&store, p);
        let mask = [true; 4];
        let loss = t.masked_cross_entropy(logits, &mask, 2);
        t.backward(loss, &mut store);
        // analytic: softmax - onehot
        let mut probs = [0.0f32; 4];
        softmax_row(&[0.1, 0.2, 0.3, 0.4], &mask, &mut probs);
        let expect: Vec<f32> =
            probs.iter().enumerate().map(|(j, pj)| pj - if j == 2 { 1.0 } else { 0.0 }).collect();
        assert!(
            approx_eq_slice(store.grad(p), &expect, 1e-5),
            "{:?} vs {:?}",
            store.grad(p),
            expect
        );
    }

    #[test]
    fn add_outer_forward_backward() {
        let mut store = ParamStore::new(0);
        let pa = store.add_param("a", 2, 1, vec![1.0, 2.0]);
        let pb = store.add_param("b", 3, 1, vec![10.0, 20.0, 30.0]);
        let mut t = Tape::new();
        let a = t.param(&store, pa);
        let b = t.param(&store, pb);
        let o = t.add_outer(a, b);
        assert_eq!(t.data(o), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
        let l = t.sum_all(o);
        t.backward(l, &mut store);
        assert_eq!(store.grad(pa), &[3.0, 3.0]);
        assert_eq!(store.grad(pb), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_rows_scatter_gradient() {
        let mut store = ParamStore::new(0);
        let p = store.add_param("emb", 3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut t = Tape::new();
        let e = t.param(&store, p);
        let g = t.gather_rows(e, &[2, 0, 2]);
        assert_eq!(t.data(g), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let l = t.sum_all(g);
        t.backward(l, &mut store);
        // row 2 gathered twice, row 0 once, row 1 never.
        assert_eq!(store.grad(p), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn layer_norm_rows_zero_mean_unit_var() {
        let mut t = Tape::new();
        let a = t.constant(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let n = t.layer_norm_rows(a, 1e-5);
        let d = t.data(n);
        let mean: f32 = d.iter().sum::<f32>() / 4.0;
        let var: f32 = d.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn repeat_and_interleave_rows() {
        let mut t = Tape::new();
        let a = t.constant(2, 1, vec![1.0, 2.0]);
        let r = t.repeat_rows(a, 2);
        assert_eq!(t.data(r), &[1.0, 2.0, 1.0, 2.0]);
        let i = t.repeat_interleave_rows(a, 2);
        assert_eq!(t.data(i), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_check_composite_expression() {
        // loss = mean(tanh(X W + b) ⊙ sigmoid(X W + b)) — exercises many ops.
        let mut store = ParamStore::new(3);
        let w = store.add_xavier("w", 3, 4);
        let b = store.add_zeros("b", 1, 4);
        let x_data: Vec<f32> = (0..6).map(|i| (i as f32) / 3.0 - 1.0).collect();

        let forward = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let x = t.constant(2, 3, x_data.clone());
            let wv = t.param(store, w);
            let bv = t.param(store, b);
            let h = t.matmul(x, wv);
            let h = t.add_row(h, bv);
            let a = t.tanh(h);
            let s = t.sigmoid(h);
            let m = t.mul(a, s);
            let l = t.mean_all(m);
            t.scalar(l)
        };

        // analytic grads
        let mut t = Tape::new();
        let x = t.constant(2, 3, x_data.clone());
        let wv = t.param(&store, w);
        let bv = t.param(&store, b);
        let h = t.matmul(x, wv);
        let h = t.add_row(h, bv);
        let a = t.tanh(h);
        let s = t.sigmoid(h);
        let m = t.mul(a, s);
        let l = t.mean_all(m);
        store.zero_grad();
        t.backward(l, &mut store);
        let gw = store.grad(w).to_vec();
        let gb = store.grad(b).to_vec();

        let worst_w = crate::grad_check(&mut store, w, &gw, 1e-2, forward);
        let worst_b = crate::grad_check(&mut store, b, &gb, 1e-2, forward);
        assert!(worst_w < 2e-3, "w gradient check failed: {worst_w}");
        assert!(worst_b < 2e-3, "b gradient check failed: {worst_b}");
    }

    #[test]
    fn grad_check_log_softmax_pick() {
        let mut store = ParamStore::new(5);
        let w = store.add_xavier("w", 1, 5);
        let mask = vec![true, true, false, true, true];
        let forward = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let logits = t.param(store, w);
            let loss = t.masked_cross_entropy(logits, &mask, 3);
            t.scalar(loss)
        };
        let mut t = Tape::new();
        let logits = t.param(&store, w);
        let loss = t.masked_cross_entropy(logits, &mask, 3);
        store.zero_grad();
        t.backward(loss, &mut store);
        let g = store.grad(w).to_vec();
        let worst = crate::grad_check(&mut store, w, &g, 1e-2, forward);
        assert!(worst < 2e-3, "log-softmax grad check failed: {worst}");
        assert_eq!(g[2], 0.0, "masked logit must receive no gradient");
    }

    #[test]
    fn mae_mse_losses() {
        let mut t = Tape::new();
        let p = t.constant(2, 1, vec![1.0, 4.0]);
        let y = t.constant(2, 1, vec![2.0, 2.0]);
        let mae = t.mae_loss(p, y);
        let mse = t.mse_loss(p, y);
        assert!((t.scalar(mae) - 1.5).abs() < 1e-6);
        assert!((t.scalar(mse) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut t = Tape::new();
        let a = t.constant(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t.transpose(a);
        let c = t.transpose(b);
        assert_eq!(t.data(a), t.data(c));
        assert_eq!(t.shape(b), (3, 2));
        assert_eq!(t.data(b), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_shape_panics() {
        let mut t = Tape::new();
        let a = t.constant(2, 3, vec![0.0; 6]);
        let b = t.constant(2, 2, vec![0.0; 4]);
        t.matmul(a, b);
    }

    #[test]
    fn reshape_is_zero_copy_view() {
        let mut t = Tape::new();
        let a = t.constant(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bufs_before = t.bufs.len();
        let r = t.reshape(a, 3, 2);
        assert_eq!(t.bufs.len(), bufs_before, "reshape must not allocate a buffer");
        assert_eq!(t.shape(r), (3, 2));
        assert_eq!(t.data(r), t.data(a));
    }

    #[test]
    fn reshape_backward_flows_through_view() {
        let mut store = ParamStore::new(0);
        let p = store.add_param("p", 2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut t = Tape::new();
        let x = t.param(&store, p);
        let v = t.reshape(x, 3, 2);
        let w = t.scale(v, 2.0);
        let l = t.sum_all(w);
        t.backward(l, &mut store);
        assert_eq!(store.grad(p), &[2.0; 6]);
    }

    /// Builds a small expression exercising matmul, broadcast, masked
    /// softmax, gather, reshape and a loss; returns the loss id.
    fn sample_program(t: &mut Tape, store: &ParamStore, w: ParamId, b: ParamId) -> TensorId {
        let x = t.constant(2, 3, vec![0.3, -0.2, 0.9, -1.1, 0.5, 0.4]);
        let wv = t.param(store, w);
        let bv = t.param(store, b);
        let h = t.matmul(x, wv);
        let h = t.add_row(h, bv);
        let h = t.tanh(h);
        let mask = vec![true, false, true, true, true, true, false, true];
        let s = t.masked_softmax_rows(h, &mask);
        let g = t.gather_rows(s, &[1, 0]);
        let v = t.reshape(g, 4, 2);
        let n = t.layer_norm_rows(v, 1e-3);
        t.mean_all(n)
    }

    #[test]
    fn cleared_tape_is_bit_identical_to_fresh() {
        let mut store = ParamStore::new(11);
        let w = store.add_xavier("w", 3, 4);
        let b = store.add_zeros("b", 1, 4);

        let mut fresh = Tape::new();
        let loss_f = sample_program(&mut fresh, &store, w, b);
        store.zero_grad();
        fresh.backward(loss_f, &mut store);
        let grads_fresh: Vec<u32> =
            store.grad(w).iter().chain(store.grad(b)).map(|g| g.to_bits()).collect();

        // Reused tape: run a *different* program first, clear, rerun.
        let mut reused = Tape::new();
        let warm = reused.constant(5, 7, vec![1.5; 35]);
        let warm_t = reused.transpose(warm);
        let warm2 = reused.matmul(warm, warm_t);
        let warm_l = reused.mean_all(warm2);
        assert!(reused.scalar(warm_l).is_finite());
        reused.clear();
        let loss_r = sample_program(&mut reused, &store, w, b);
        store.zero_grad();
        reused.backward(loss_r, &mut store);
        let grads_reused: Vec<u32> =
            store.grad(w).iter().chain(store.grad(b)).map(|g| g.to_bits()).collect();

        let fb: Vec<u32> = fresh.data(loss_f).iter().map(|x| x.to_bits()).collect();
        let rb: Vec<u32> = reused.data(loss_r).iter().map(|x| x.to_bits()).collect();
        assert_eq!(fb, rb, "forward data must be bit-identical after clear()");
        assert_eq!(grads_fresh, grads_reused, "grads must be bit-identical after clear()");
    }

    /// Regression: a long-lived serving tape once kept the buffers of
    /// caller-built inputs (`constant`) across `clear()` and grew by
    /// one pass's worth of memory per request. A cleared tape must hold
    /// no data or gradient buffer at all.
    #[test]
    fn clear_drops_every_data_and_gradient_buffer() {
        let mut store = ParamStore::new(11);
        let w = store.add_xavier("w", 6, 6);
        let mut t = Tape::new();
        for _ in 0..3 {
            let x = t.constant(4, 6, vec![0.25; 24]);
            let y = t.constant(4, 6, vec![1.75; 24]);
            let wp = t.param(&store, w);
            let h = t.matmul(x, wp);
            let s = t.add(h, y);
            let l = t.mean_all(s);
            store.zero_grad();
            t.backward(l, &mut store);
            assert!(!t.bufs.is_empty() && !t.grads.is_empty());
            t.clear();
            assert!(t.is_empty(), "clear() must forget every node");
            assert!(t.bufs.is_empty(), "clear() must drop every data buffer");
            assert!(t.grads.is_empty(), "clear() must drop every gradient buffer");
        }
    }

    #[test]
    fn inference_tape_matches_training_forward_and_allocates_no_grads() {
        let mut store = ParamStore::new(7);
        let w = store.add_xavier("w", 3, 4);
        let b = store.add_zeros("b", 1, 4);
        let mut train = Tape::new();
        let lt = sample_program(&mut train, &store, w, b);
        let mut inf = Tape::inference();
        let li = sample_program(&mut inf, &store, w, b);
        assert_eq!(train.scalar(lt).to_bits(), inf.scalar(li).to_bits());
        assert!(inf.grads.is_empty(), "no-grad tape must not allocate gradient buffers");
        assert!(!inf.is_grad_enabled());
    }

    #[test]
    #[should_panic(expected = "no-grad")]
    fn backward_on_inference_tape_panics() {
        let mut store = ParamStore::new(0);
        let p = store.add_param("p", 1, 1, vec![2.0]);
        let mut t = Tape::inference();
        let x = t.param(&store, p);
        let l = t.sum_all(x);
        t.backward(l, &mut store);
    }
}
