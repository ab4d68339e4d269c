//! Property-based tests for the device simulator's core invariants.

use csd_device::{
    DdrBank, DramSubsystem, Nanos, NvmeSsd, ResourceTimeline, SmartSsd, SsdConfig, TransferPath,
};
use proptest::prelude::*;

proptest! {
    /// A timeline never schedules work in the past and accumulates busy
    /// time exactly.
    #[test]
    fn timeline_never_overlaps(reqs in prop::collection::vec((0u64..10_000, 1u64..1_000), 1..40)) {
        let mut tl = ResourceTimeline::new();
        let mut last_end = Nanos::ZERO;
        let mut total = 0u64;
        for (at, dur) in reqs {
            let end = tl.acquire(Nanos(at), Nanos(dur));
            // FIFO service: completions are monotone.
            prop_assert!(end >= last_end);
            // A request can never finish before it arrives plus its duration.
            prop_assert!(end.as_nanos() >= at + dur);
            last_end = end;
            total += dur;
        }
        prop_assert_eq!(tl.busy_total(), Nanos(total));
    }

    /// SSD reads: more bytes never finish sooner, and throughput never
    /// exceeds the drive's sequential ceiling.
    #[test]
    fn ssd_read_monotone_and_bounded(a in 1u64..(1 << 24), b in 1u64..(1 << 24)) {
        let cfg = SsdConfig::pm1733_gen3();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let t_lo = NvmeSsd::new(cfg).read(Nanos::ZERO, lo);
        let t_hi = NvmeSsd::new(cfg).read(Nanos::ZERO, hi);
        prop_assert!(t_hi >= t_lo);
        let floor = Nanos::for_transfer(hi, cfg.seq_read_gib_s);
        prop_assert!(t_hi >= floor, "{t_hi} beat the bandwidth ceiling {floor}");
    }

    /// DDR: striping a workload over more banks never makes it slower.
    #[test]
    fn more_banks_never_slower(accesses in 1u32..60, bytes in 1u64..100_000) {
        let run = |banks: u32| {
            let mut dram = DramSubsystem::new(banks, DdrBank::default());
            let mut done = Nanos::ZERO;
            for i in 0..accesses {
                done = done.max(dram.access(i % banks, Nanos::ZERO, bytes));
            }
            done
        };
        prop_assert!(run(2) <= run(1));
        prop_assert!(run(4) <= run(2));
    }

    /// P2P beats the host bounce for any transfer size.
    #[test]
    fn p2p_always_wins(bytes in 1u64..(1 << 26)) {
        let p2p = SmartSsd::new_smartssd().transfer(TransferPath::SsdToFpgaP2p, bytes);
        let host = SmartSsd::new_smartssd().transfer(TransferPath::SsdToFpgaViaHost, bytes);
        prop_assert!(p2p < host, "{bytes} B: {p2p} vs {host}");
    }

    /// Transfers are monotone in size on every path.
    #[test]
    fn transfers_monotone(a in 1u64..(1 << 22), b in 1u64..(1 << 22)) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for path in [
            TransferPath::SsdToFpgaP2p,
            TransferPath::SsdToFpgaViaHost,
            TransferPath::HostToFpga,
            TransferPath::SsdToHost,
        ] {
            let t_lo = SmartSsd::new_smartssd().transfer(path, lo);
            let t_hi = SmartSsd::new_smartssd().transfer(path, hi);
            prop_assert!(t_hi >= t_lo, "{path:?}");
        }
    }
}
