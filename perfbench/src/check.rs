//! The correctness gate: a digest per sample taken at set-up, and a
//! ledger that checks every delivered slot against it and counts
//! exactly-once delivery per epoch.

use sciml_half::F16;
use sciml_pipeline::{Batch, DecoderPlugin, Label};
use std::collections::BTreeMap;

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MIX).rotate_left(29)
}

fn finish(lanes: [u64; 4], len: usize) -> u64 {
    lanes
        .iter()
        .fold(len as u64, |h, &l| mix(h, l))
        .wrapping_mul(MIX)
}

/// Digest of an FP16 tensor's bit patterns. Four independent lanes keep
/// the consumer's check far cheaper than the decode it verifies.
pub fn tensor_digest(data: &[F16]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        for (lane, q) in lanes.iter_mut().zip(chunk.chunks_exact(4)) {
            let word = u64::from(q[0].0)
                | u64::from(q[1].0) << 16
                | u64::from(q[2].0) << 32
                | u64::from(q[3].0) << 48;
            *lane = mix(*lane, word);
        }
    }
    for (i, v) in chunks.remainder().iter().enumerate() {
        lanes[i % 4] = mix(lanes[i % 4], u64::from(v.0));
    }
    finish(lanes, data.len())
}

fn bytes_digest(data: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut chunks = data.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            *lane = mix(*lane, u64::from_le_bytes(word));
        }
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        lanes[i % 4] = mix(lanes[i % 4], u64::from(b));
    }
    finish(lanes, data.len())
}

fn label_digest(label: &Label) -> u64 {
    match label {
        Label::Cosmo(v) => {
            let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
            bytes_digest(&bytes)
        }
        Label::Mask(m) => bytes_digest(m),
    }
}

/// Digest of one delivered sample: its tensor and its label.
pub fn sample_digest(data: &[F16], label: &Label) -> u64 {
    mix(tensor_digest(data), label_digest(label))
}

/// Reference digests from a single-threaded `DecoderPlugin::decode` of
/// each original encoded sample, one call at a time.
pub fn reference_digests(
    plugin: &dyn DecoderPlugin,
    samples: &[Vec<u8>],
) -> Result<Vec<u64>, String> {
    samples
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let d = plugin
                .decode(bytes)
                .map_err(|e| format!("reference decode of sample {i}: {e}"))?;
            Ok(sample_digest(&d.data, &d.label))
        })
        .collect()
}

/// Delivery counts of one or more pipeline runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Sample slots delivered.
    pub delivered: u64,
    /// Slots whose content or label differs from the reference, or
    /// whose index is out of range.
    pub mismatched: u64,
    /// Slots delivering an index already delivered in the same epoch.
    pub duplicates: u64,
    /// Samples of a checked epoch that never arrived.
    pub missing: u64,
}

impl Tally {
    /// Deliveries the run owed: everything delivered plus everything
    /// that should have been.
    pub fn attempted(&self) -> u64 {
        self.delivered + self.missing
    }

    /// Failed or wrong deliveries.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.duplicates + self.missing
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.delivered += other.delivered;
        self.mismatched += other.mismatched;
        self.duplicates += other.duplicates;
        self.missing += other.missing;
    }
}

/// Checks the batches of one pipeline run.
pub struct Ledger<'a> {
    digests: &'a [u64],
    /// Per epoch: which indices arrived, and how many distinct ones.
    epochs: BTreeMap<usize, (Vec<bool>, usize)>,
    /// Lowest epoch not yet known complete.
    first_open: usize,
    tally: Tally,
}

impl<'a> Ledger<'a> {
    /// A ledger over a dataset whose sample `i` has digest `digests[i]`.
    pub fn new(digests: &'a [u64]) -> Self {
        Self {
            digests,
            epochs: BTreeMap::new(),
            first_open: 0,
            tally: Tally::default(),
        }
    }

    /// Checks every slot of `batch`.
    pub fn accept(&mut self, batch: &Batch) {
        let n = self.digests.len();
        // A batch whose tensor, index list and label list disagree in
        // length has slots that cannot be checked.
        let slots = batch.data.len() / batch.sample_len.max(1);
        if batch.indices.len() != batch.labels.len() || slots != batch.labels.len() {
            self.tally.mismatched += 1;
        }
        let (seen, distinct) = self
            .epochs
            .entry(batch.epoch)
            .or_insert_with(|| (vec![false; n], 0));
        for (slot, (&idx, label)) in batch.indices.iter().zip(&batch.labels).enumerate() {
            self.tally.delivered += 1;
            let Some(&want) = self.digests.get(idx).filter(|_| slot < slots) else {
                self.tally.mismatched += 1;
                continue;
            };
            if seen[idx] {
                self.tally.duplicates += 1;
            } else {
                seen[idx] = true;
                *distinct += 1;
            }
            if sample_digest(batch.sample(slot), label) != want {
                self.tally.mismatched += 1;
            }
        }
    }

    /// True when every epoch up to and including `epoch` delivered
    /// every sample.
    pub fn complete_through(&mut self, epoch: usize) -> bool {
        let n = self.digests.len();
        while self.first_open <= epoch {
            match self.epochs.get(&self.first_open) {
                Some(&(_, distinct)) if distinct == n => self.first_open += 1,
                _ => return false,
            }
        }
        true
    }

    /// Highest epoch seen so far (0 before any delivery).
    pub fn max_epoch(&self) -> usize {
        self.epochs.keys().next_back().copied().unwrap_or(0)
    }

    /// Closes the run. Every epoch up to `through` must be complete;
    /// its absent samples count as missing. Later epochs were cut short
    /// on purpose and are only checked for duplicates and content.
    pub fn close(mut self, through: usize) -> Tally {
        let n = self.digests.len() as u64;
        for epoch in 0..=through {
            let distinct = self.epochs.get(&epoch).map_or(0, |e| e.1) as u64;
            self.tally.missing += n - distinct.min(n);
        }
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_pipeline::PooledTensor;

    fn batch(epoch: usize, indices: &[usize], values: &[u16]) -> Batch {
        Batch {
            data: PooledTensor::unpooled(values.iter().map(|&v| F16(v)).collect()),
            sample_len: values.len() / indices.len(),
            labels: indices.iter().map(|_| Label::Cosmo([0.0; 4])).collect(),
            indices: indices.to_vec(),
            epoch,
        }
    }

    fn digests(values: &[&[u16]]) -> Vec<u64> {
        values
            .iter()
            .map(|v| {
                let t: Vec<F16> = v.iter().map(|&x| F16(x)).collect();
                sample_digest(&t, &Label::Cosmo([0.0; 4]))
            })
            .collect()
    }

    #[test]
    fn digest_sees_every_value_and_the_length() {
        let a: Vec<F16> = (0..37).map(F16).collect();
        let mut b = a.clone();
        b[36] = F16(1000);
        assert_ne!(tensor_digest(&a), tensor_digest(&b));
        b[36] = a[36];
        b[3] = F16(7);
        assert_ne!(tensor_digest(&a), tensor_digest(&b));
        assert_ne!(tensor_digest(&a[..36]), tensor_digest(&a));
    }

    #[test]
    fn ledger_counts_mismatch_duplicate_and_missing() {
        let refs = digests(&[&[1, 2], &[3, 4], &[5, 6]]);
        let mut ledger = Ledger::new(&refs);
        ledger.accept(&batch(0, &[0, 1], &[1, 2, 3, 4]));
        assert!(!ledger.complete_through(0));
        ledger.accept(&batch(0, &[2], &[5, 6]));
        assert!(ledger.complete_through(0));
        // Epoch 1: a wrong value, a duplicate, and indices 1 and 2 never
        // come.
        ledger.accept(&batch(1, &[0, 0], &[1, 9, 1, 2]));
        let tally = ledger.close(1);
        assert_eq!(tally.delivered, 5);
        assert_eq!(tally.mismatched, 1);
        assert_eq!(tally.duplicates, 1);
        assert_eq!(tally.missing, 2);
        assert_eq!(tally.attempted(), 7);
        assert_eq!(tally.failed(), 4);
    }
}
