//! The correctness oracle applied to every trial.
//!
//! Every delivered `(flow, seq, digest)` must match the template the
//! source sent for that message; `injected == delivered + dropped`
//! must hold; the order audit must find no violation; clean traffic
//! must never drop as `Malformed`; and the slab pool must never fall
//! back to the heap. Drops of any other kind (and loopback socket
//! loss) are not oracle failures but loss: they count in `failed`.

use falcon_trace::DropReason;

use crate::gen::Inputs;
use crate::workload::Trial;

/// One trial's verdict.
#[derive(Debug, Default, Clone)]
pub struct Check {
    /// Messages the source offered (sent datagrams on the loopback).
    pub attempted: u64,
    /// Deliveries whose digest matched the template sent.
    pub delivered_ok: u64,
    pub drops: [u64; DropReason::ALL.len()],
    pub digest_mismatches: u64,
    /// Deliveries of a (flow, seq) the source never sent.
    pub unexpected: u64,
    pub order_violations: u64,
    /// `|injected - delivered - dropped|`.
    pub conservation_gap: u64,
    pub slab_fallbacks: u64,
    /// Loopback datagrams sent but never received.
    pub socket_loss: u64,
}

impl Check {
    pub fn of(trial: &Trial, inputs: &Inputs) -> Check {
        let out = &trial.out;
        let sent = &trial.source.sent_per_flow;
        let mut c = Check {
            attempted: out.injected,
            drops: out.drops_by_reason(),
            slab_fallbacks: out.slab.map_or(0, |s| s.fallbacks),
            ..Check::default()
        };
        for w in &out.workers_stats {
            for &(flow, seq, digest) in &w.digests {
                if sent.get(flow as usize).is_none_or(|&n| seq >= n) {
                    c.unexpected += 1;
                } else if digest != inputs.digest(flow, seq) {
                    c.digest_mismatches += 1;
                } else {
                    c.delivered_ok += 1;
                }
            }
        }
        c.order_violations = out.order_audit().1;
        c.conservation_gap = out.injected.abs_diff(out.delivered() + out.dropped());
        if let Some(ingest) = &trial.source.ingest {
            c.socket_loss = ingest.lost;
            c.attempted = out.injected + ingest.lost;
        }
        c
    }

    /// Operations that failed: every drop, every bad delivery, every
    /// order violation, every datagram lost in the socket.
    pub fn failed(&self) -> u64 {
        self.drops.iter().sum::<u64>()
            + self.digest_mismatches
            + self.unexpected
            + self.order_violations
            + self.socket_loss
    }

    /// Named counts of every nonzero failure, oracle or loss.
    pub fn named(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = DropReason::ALL
            .iter()
            .map(|r| (format!("drop.{}", r.label()), self.drops[r.index()]))
            .collect();
        v.extend([
            ("digest_mismatch".to_string(), self.digest_mismatches),
            ("unexpected_delivery".to_string(), self.unexpected),
            ("order_violation".to_string(), self.order_violations),
            ("conservation_gap".to_string(), self.conservation_gap),
            ("slab_fallback".to_string(), self.slab_fallbacks),
            ("socket_loss".to_string(), self.socket_loss),
        ]);
        v.retain(|(_, n)| *n > 0);
        v
    }

    /// Whether the oracle holds (loss alone does not break it).
    pub fn correct(&self) -> bool {
        self.digest_mismatches == 0
            && self.unexpected == 0
            && self.order_violations == 0
            && self.conservation_gap == 0
            && self.slab_fallbacks == 0
            && self.drops[DropReason::Malformed.index()] == 0
    }

    pub fn add(&mut self, o: &Check) {
        self.attempted += o.attempted;
        self.delivered_ok += o.delivered_ok;
        for (a, b) in self.drops.iter_mut().zip(o.drops) {
            *a += b;
        }
        self.digest_mismatches += o.digest_mismatches;
        self.unexpected += o.unexpected;
        self.order_violations += o.order_violations;
        self.conservation_gap += o.conservation_gap;
        self.slab_fallbacks += o.slab_fallbacks;
        self.socket_loss += o.socket_loss;
    }
}
