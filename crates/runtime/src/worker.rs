//! Ordinary (non-driver) stage workers, and the spawner that (re)builds
//! the downstream pipeline.
//!
//! A worker loops on its metadata channel: for each announced micro-batch
//! it prepares the chunk structures (possible before activations arrive —
//! the overlap §3.3 describes), blocks on the previous stage's activation
//! stream, runs its decoder layers and forwards the result. The last stage
//! additionally projects logits, samples tokens and returns them to the
//! driver.
//!
//! [`StageSpawner`] owns everything needed to wire stages `1..S` from
//! scratch — model config, layer partition, weight seed, fault injector —
//! so the driver can tear a dead pipeline down and respawn it with
//! *identical* weights (same seed ⇒ same parameters), which is what makes
//! recovered runs bit-identical to fault-free runs.

use std::ops::Range;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use gllm_model::ModelConfig;
use gllm_transformer::sampler::sample;
use gllm_transformer::StageModel;

use crate::fault::{ActivationFate, FaultInjector};
use crate::messages::{Activations, BatchMeta, BatchResult, WorkerMsg};

/// What a worker does with its stage output.
pub enum StageOutput {
    /// Forward activations to the next stage.
    Next(Sender<Activations>),
    /// Final stage: sample and report to the driver.
    Result(Sender<BatchResult>),
}

/// The driver's handles to one generation of downstream stages. Dropping
/// the senders cascades every worker to a clean exit (each blocks only on
/// its own inputs), after which `handles` can be joined without deadlock.
pub struct PipelineLinks {
    /// Per-worker metadata broadcast channels (stages `1..S`).
    pub meta_txs: Vec<Sender<WorkerMsg>>,
    /// Activation channel into stage 1 (`None` on single-stage pipelines).
    pub act_tx: Option<Sender<Activations>>,
    /// Sampled tokens from the last stage.
    pub result_rx: Receiver<BatchResult>,
    /// Worker thread handles, stage order.
    pub handles: Vec<JoinHandle<()>>,
}

impl PipelineLinks {
    /// Links to nothing: every channel closed, no threads. Used as the
    /// placeholder while the driver swaps generations during recovery.
    pub fn empty() -> Self {
        let (_, result_rx) = unbounded();
        Self { meta_txs: Vec::new(), act_tx: None, result_rx, handles: Vec::new() }
    }
}

/// Everything needed to (re)build the downstream pipeline stages from
/// seeded weights.
pub struct StageSpawner {
    model: ModelConfig,
    /// Layer range per stage (index 0 is the driver's, never respawned).
    ranges: Vec<Range<usize>>,
    kv_slots: usize,
    seed: u64,
    injector: FaultInjector,
}

impl StageSpawner {
    /// A spawner for `ranges.len()` stages over `model`.
    pub fn new(
        model: ModelConfig,
        ranges: Vec<Range<usize>>,
        kv_slots: usize,
        seed: u64,
        injector: FaultInjector,
    ) -> Self {
        Self { model, ranges, kv_slots, seed, injector }
    }

    /// Total pipeline stages (including the driver's stage 0).
    pub fn num_stages(&self) -> usize {
        self.ranges.len()
    }

    /// Wire and spawn stages `1..S`: a metadata channel per worker plus
    /// the activation chain driver → 1 → … → S−1 → results. Weights are
    /// rebuilt from the seed, so a respawned stage is parameter-identical
    /// to the one it replaces. On a single-stage pipeline this returns
    /// [`PipelineLinks::empty`]-shaped links (no workers, closed results).
    pub fn spawn_downstream(&self) -> PipelineLinks {
        let num_stages = self.ranges.len();
        let (result_tx, result_rx) = unbounded();
        let mut meta_txs = Vec::with_capacity(num_stages.saturating_sub(1));
        let mut handles = Vec::with_capacity(num_stages.saturating_sub(1));
        let mut first_act_tx = None;
        let mut next_act_rx: Option<Receiver<Activations>> = None;
        for (s, range) in self.ranges.iter().enumerate().skip(1) {
            let (meta_tx, meta_rx) = unbounded();
            meta_txs.push(meta_tx);
            let act_rx = match next_act_rx.take() {
                Some(rx) => rx,
                None => {
                    let (tx, rx) = unbounded();
                    first_act_tx = Some(tx);
                    rx
                }
            };
            let is_last = s + 1 == num_stages;
            let output = if is_last {
                StageOutput::Result(result_tx.clone())
            } else {
                let (tx, rx) = unbounded();
                next_act_rx = Some(rx);
                StageOutput::Next(tx)
            };
            let stage = StageModel::new(
                self.model.clone(),
                range.clone(),
                self.kv_slots,
                self.seed,
                false,
                is_last,
            );
            let injector = self.injector.clone();
            handles.push(std::thread::spawn(move || {
                run_worker(s, stage, meta_rx, act_rx, output, injector)
            }));
        }
        PipelineLinks { meta_txs, act_tx: first_act_tx, result_rx, handles }
    }
}

/// Run one worker until shutdown (or injected death). `meta_rx` delivers
/// batch metadata (ahead of data), `act_rx` the previous stage's
/// activations.
pub fn run_worker(
    stage_idx: usize,
    mut stage: StageModel,
    meta_rx: Receiver<WorkerMsg>,
    act_rx: Receiver<Activations>,
    output: StageOutput,
    injector: FaultInjector,
) {
    while let Ok(msg) = meta_rx.recv() {
        let meta = match msg {
            WorkerMsg::Batch(meta) => meta,
            WorkerMsg::Shutdown => break,
        };
        if injector.should_kill(stage_idx, meta.batch) {
            // Injected death: vanish without a goodbye. Our channels drop,
            // the neighbours cascade out, the driver detects and recovers.
            return;
        }
        // Preparation from metadata alone (tables, chunk layout) happens
        // here, before the activations land.
        let tables: Vec<_> = meta.tables.iter().collect();
        let Ok(acts) = act_rx.recv() else {
            // Upstream stage gone: the pipeline is tearing down.
            break;
        };
        if acts.batch != meta.batch {
            // Metadata/activation streams desynchronised — an upstream
            // activation was lost. There is no way to resynchronise
            // locally (the missing batch's hidden state is gone), so exit
            // and let the teardown cascade reach the driver, which rolls
            // the lost batches back and recomputes them.
            break;
        }
        let mut hidden = acts.hidden;
        stage.forward(&meta.chunks, &tables, &mut hidden);
        match &output {
            StageOutput::Next(tx) => {
                match injector.activation_fate(stage_idx, meta.batch) {
                    ActivationFate::Drop => continue,
                    ActivationFate::Delay(d) => std::thread::sleep(d),
                    ActivationFate::Deliver => {}
                }
                if tx.send(Activations { batch: meta.batch, hidden }).is_err() {
                    break;
                }
            }
            StageOutput::Result(tx) => {
                let tokens = project_and_sample(&stage, &meta, &hidden);
                if tx.send(BatchResult { batch: meta.batch, tokens }).is_err() {
                    break;
                }
            }
        }
    }
}

/// Last-stage tail of a micro-batch: project the sampled chunks' logits
/// and draw one token for each chunk that carries sampling parameters.
/// Returns `(seq, token)` in chunk order.
pub fn project_and_sample(
    stage: &StageModel,
    meta: &BatchMeta,
    hidden: &[Vec<f32>],
) -> Vec<(u64, u32)> {
    let sampled = meta.chunks.iter().zip(&meta.samples).filter(|(c, _)| c.sample);
    stage
        .project(&meta.chunks, hidden)
        .into_iter()
        .zip(sampled)
        .filter_map(|((seq, logits), (_, how))| {
            how.as_ref().map(|(params, step)| (seq, sample(&logits, params, seq, *step)))
        })
        .collect()
}
