//! # ams-nn — minimal neural-network substrate
//!
//! A small, dependency-free dense neural-network library with manual
//! backpropagation, built for the paper's Q-value network: a 1104-dimension
//! binary observation → one ReLU hidden layer (256 units) → Q values over 31
//! actions (30 models + END), optionally with a dueling value/advantage head.
//!
//! Design notes:
//!
//! * Weights are stored **input-major** (`w[in][out]`), which makes the
//!   sparse-binary-input fast path, the weight gradient, and the input
//!   gradient all row-contiguous.
//! * The labeling state is a sparse binary vector (a handful of active
//!   labels out of 1104), so [`dense::Dense::forward`] accepts an
//!   [`Input::Sparse`] encoding and skips inactive rows entirely — a 20–50×
//!   speed-up on the first layer, which dominates the network.
//! * No autograd: each layer implements its own backward pass, verified
//!   against finite differences in the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod infer;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod optimizer;
pub mod qnet;

pub use dense::{BatchInput, Dense, DenseGrad, Input};
pub use infer::{InferScratch, QInfer};
pub use loss::Huber;
pub use matrix::Mat;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use qnet::{
    BatchBwdCache, BatchFwdCache, BwdCache, FwdCache, Head, QNet, QNetConfig, QNetGrads,
};
