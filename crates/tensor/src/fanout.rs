//! The one scoped fan-out of the stack: the trainer's gradient
//! sub-batches and the engine's batch chunks both run through
//! [`fan_out`].
//!
//! The worker count only schedules work. Each part's result is the
//! same function of that part whichever thread runs it, and the results
//! come back in part order, so a caller that folds them in that order
//! gets the same bits at every worker count.

/// Maps `each` over `parts` on at most `workers` threads and returns
/// the results in part order.
///
/// The parts are cut into at most `workers` contiguous groups of
/// `parts.len().div_ceil(groups)` (never an empty group). The calling
/// thread runs the first group and a scoped thread each other one; each
/// group builds one state with `init` and threads it through its parts,
/// so a scratch buffer is allocated once a group, not once a part.
///
/// # Panics
///
/// A part's panic reaches the caller with its own payload, once every
/// group has finished. `workers` of 0 is taken as 1.
pub fn fan_out<P, S, R>(
    parts: &[P],
    workers: usize,
    init: impl Fn() -> S + Sync,
    each: impl Fn(&mut S, &P) -> R + Sync,
) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    let run = |group: &[P]| {
        let mut state = init();
        group
            .iter()
            .map(|part| each(&mut state, part))
            .collect::<Vec<R>>()
    };
    let groups = workers.min(parts.len());
    if groups <= 1 {
        return run(parts);
    }
    let size = parts.len().div_ceil(groups);
    let (first, rest) = parts.split_at(size);
    std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .chunks(size)
            .map(|group| scope.spawn(move || run(group)))
            .collect();
        let mut out = run(first);
        for handle in spawned {
            match handle.join() {
                Ok(results) => out.extend(results),
                // The scope joins the other groups before this unwinds
                // out of it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_part_order_with_one_state_a_group() {
        // Three workers cut eleven parts into groups of four, four and
        // three; the state counts the parts its group has seen.
        let parts: Vec<usize> = (0..11).collect();
        let got = fan_out(
            &parts,
            3,
            || 0,
            |seen, &p| (p, std::mem::replace(seen, *seen + 1)),
        );
        let want: Vec<(usize, usize)> = parts.iter().map(|&p| (p, p % 4)).collect();
        assert_eq!(got, want);
        for workers in [0, 1, 2, 4, 11, 64] {
            assert_eq!(fan_out(&parts, workers, || (), |_, &p| p), parts);
        }
    }

    #[test]
    #[should_panic(expected = "part 10 refused")]
    fn a_workers_panic_reaches_the_caller_with_its_own_message() {
        // The last part sits in the last group, which a scoped thread
        // runs.
        let parts: Vec<u32> = (0..11).collect();
        fan_out(
            &parts,
            3,
            || (),
            |_, &p| assert!(p != 10, "part {p} refused"),
        );
    }
}
