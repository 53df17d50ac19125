//! Seeded input generation, done once before anything is timed.
//!
//! Every frame a run injects is a copy of one of `k` pre-built
//! template messages per flow, so the timed source only copies bytes
//! into a leased slab slot. Packet `seq` of flow `f` is template
//! `seq % k` of `f`; the template's payload digest is what the oracle
//! expects at delivery. Template payloads and the Zipf flow sequence
//! both derive from `--seed`.

use falcon_dataplane::TrafficShape;
use falcon_packet::encap::{build_tcp_frame, build_udp_frame, fill_l4_checksum, vxlan_encapsulate};
use falcon_packet::TcpFlags;
use falcon_wire::{payload_digest, FrameFactory};

use crate::workload::Spec;

/// SplitMix64: a tiny, well-mixed seeded generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Length of the pre-drawn flow sequence a Zipf workload cycles through.
const ZIPF_SEQUENCE: usize = 1 << 17;

/// Everything a run injects, built from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Templates per flow.
    pub k: usize,
    /// Flows.
    pub flows: u64,
    /// Application payload bytes per message.
    pub payload: usize,
    /// Wire segments of template `flow * k + j`.
    pub frames: Vec<Vec<Vec<u8>>>,
    /// Payload digest of template `flow * k + j`.
    pub digests: Vec<u64>,
    /// Flow of the i-th injected packet (cycled); empty = round-robin.
    pub sequence: Vec<u32>,
}

impl Inputs {
    pub fn build(spec: &Spec, seed: u64) -> Inputs {
        let factory = FrameFactory::default();
        let k = spec.templates_per_flow;
        let mut frames = Vec::with_capacity(spec.flows as usize * k);
        let mut digests = Vec::with_capacity(frames.capacity());
        let mut payload = vec![0u8; spec.payload];
        for flow in 0..spec.flows {
            for j in 0..k {
                let mut rng =
                    Rng::new(seed ^ flow.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((j as u64) << 40));
                for chunk in payload.chunks_mut(8) {
                    let word = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                digests.push(payload_digest(&payload));
                frames.push(message(&factory, spec.shape, flow, j, &payload));
            }
        }
        let sequence = if spec.zipf {
            zipf_sequence(spec.flows, seed, ZIPF_SEQUENCE)
        } else {
            Vec::new()
        };
        Inputs {
            k,
            flows: spec.flows,
            payload: spec.payload,
            frames,
            digests,
            sequence,
        }
    }

    /// Flow of the `i`-th packet of a trial.
    pub fn flow_at(&self, i: u64) -> u64 {
        if self.sequence.is_empty() {
            i % self.flows
        } else {
            self.sequence[i as usize % self.sequence.len()] as u64
        }
    }

    fn index(&self, flow: u64, seq: u64) -> usize {
        flow as usize * self.k + (seq % self.k as u64) as usize
    }

    /// Wire segments of message `seq` of `flow`.
    pub fn frame(&self, flow: u64, seq: u64) -> &[Vec<u8>] {
        &self.frames[self.index(flow, seq)]
    }

    /// Payload digest the container must see for message `seq` of `flow`.
    pub fn digest(&self, flow: u64, seq: u64) -> u64 {
        self.digests[self.index(flow, seq)]
    }
}

/// One message's VXLAN wire segments, addressed exactly like
/// [`FrameFactory`] frames (so the pipeline's FDB knows both inner
/// MACs) but carrying the seeded payload. TCP messages are cut into
/// MSS segments with a contiguous sequence run, as a sender's TSO
/// would emit them.
fn message(
    factory: &FrameFactory,
    shape: TrafficShape,
    flow: u64,
    j: usize,
    payload: &[u8],
) -> Vec<Vec<u8>> {
    let (src_mac, dst_mac) = factory.inner_macs(flow);
    let params = factory.encap_params(flow);
    match shape {
        TrafficShape::Udp => {
            let keys = factory.inner_keys(flow, false);
            let mut inner = build_udp_frame(src_mac, dst_mac, &keys, payload);
            fill_l4_checksum(&mut inner).expect("udp layout");
            vec![vxlan_encapsulate(&inner, &params)]
        }
        TrafficShape::TcpGro { mss } => {
            let keys = factory.inner_keys(flow, true);
            let seq0 = (j as u64 * payload.len() as u64) as u32;
            payload
                .chunks(mss)
                .enumerate()
                .map(|(n, chunk)| {
                    let mut inner = build_tcp_frame(
                        src_mac,
                        dst_mac,
                        &keys,
                        seq0.wrapping_add((n * mss) as u32),
                        0,
                        TcpFlags::data(),
                        0xFFFF,
                        chunk,
                    );
                    fill_l4_checksum(&mut inner).expect("tcp layout");
                    vxlan_encapsulate(&inner, &params)
                })
                .collect()
        }
    }
}

/// `len` flow ids drawn Zipf(s = 1.0) over `flows` ranks; the rank to
/// flow mapping is a seeded permutation, so which flows are hot also
/// depends on the seed.
fn zipf_sequence(flows: u64, seed: u64, len: usize) -> Vec<u32> {
    let n = flows as usize;
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 0..n {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed ^ 0x5A1F_5A1F_5A1F_5A1F);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * acc;
            perm[cdf.partition_point(|&c| c <= u).min(n - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Spec;

    fn spec(name: &str) -> Spec {
        Spec::by_name(name, 2).expect("known workload")
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for name in ["elephant-tcp4k", "mice-udp64"] {
            let a = Inputs::build(&spec(name), 7);
            let b = Inputs::build(&spec(name), 7);
            assert_eq!(a.frames, b.frames, "{name}");
            assert_eq!(a.digests, b.digests, "{name}");
            assert_eq!(a.sequence, b.sequence, "{name}");
        }
    }

    #[test]
    fn held_out_seed_gives_different_inputs() {
        for name in ["elephant-tcp4k", "mice-udp64"] {
            let a = Inputs::build(&spec(name), 7);
            let b = Inputs::build(&spec(name), 8);
            assert_ne!(a.frames, b.frames, "{name}");
            assert_ne!(a.digests, b.digests, "{name}");
        }
        let a = Inputs::build(&spec("mice-udp64"), 7);
        let b = Inputs::build(&spec("mice-udp64"), 8);
        assert_ne!(a.sequence, b.sequence);
    }

    #[test]
    fn zipf_is_skewed_and_covers_many_flows() {
        let seq = zipf_sequence(16_384, 3, ZIPF_SEQUENCE);
        let mut counts = vec![0u32; 16_384];
        for &f in &seq {
            counts[f as usize] += 1;
        }
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        let top = *counts.iter().max().unwrap() as f64 / seq.len() as f64;
        // H(16384) ~ 10.3, so the hottest flow carries ~1/10.3 of the mass.
        assert!((0.08..0.12).contains(&top), "top share {top}");
        assert!(distinct > 8_000, "distinct flows {distinct}");
    }

    #[test]
    fn templates_pass_every_layer() {
        use falcon_packet::{MacAddr, WireBuf};
        use falcon_wire::{
            bridge_lookup, deliver_verify, gro_coalesce, pnic_verify, vxlan_decap, Fdb,
        };
        for name in [
            "elephant-tcp4k",
            "mice-udp64",
            "falcon-1flow",
            "ingest-loopback",
        ] {
            let s = spec(name);
            let inputs = Inputs::build(&s, 11);
            let fdb = Fdb::for_flows(&FrameFactory::default(), s.flows);
            let host: MacAddr = FrameFactory::host_mac();
            for (flow, seq) in [(0u64, 0u64), (s.flows - 1, 5)] {
                let mut buf = *WireBuf::segments(inputs.frame(flow, seq).to_vec());
                pnic_verify(&buf, host).unwrap();
                gro_coalesce(&mut buf).unwrap();
                vxlan_decap(&mut buf, FrameFactory::default().vni).unwrap();
                bridge_lookup(&buf, &fdb).unwrap();
                let d = deliver_verify(&buf).unwrap();
                assert_eq!(d.digest, inputs.digest(flow, seq), "{name}");
                assert_eq!(d.payload_len as usize, s.payload, "{name}");
            }
        }
    }
}
