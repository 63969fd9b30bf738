//! Property tests: every data-parallel primitive agrees with a sequential
//! reference on arbitrary inputs and worker counts. Runs on the in-tree
//! seeded harness (`gmc_dpp::prop`); failures replay via `GMC_PROP_SEED`.

use gmc_dpp::prop::{self, gens, shrinks};
use gmc_dpp::{prop_assert, prop_assert_eq, Executor};

fn executor_count(rng: &mut gmc_dpp::Rng) -> usize {
    gens::one_of(rng, &[1usize, 2, 3, 7])
}

#[test]
fn exclusive_scan_matches_reference() {
    prop::check(
        "exclusive_scan_matches_reference",
        |rng| (gens::vec_usize(rng, 0..3000, 0..1000), executor_count(rng)),
        shrinks::pair(shrinks::vec, shrinks::none),
        |(input, workers)| {
            let exec = Executor::new(*workers);
            let (scanned, total) = gmc_dpp::exclusive_scan(&exec, input);
            let mut acc = 0usize;
            for (i, &v) in input.iter().enumerate() {
                prop_assert_eq!(scanned[i], acc);
                acc += v;
            }
            prop_assert_eq!(total, acc);
            Ok(())
        },
    );
}

#[test]
fn launch_stats_do_not_depend_on_worker_count() {
    // Launch counts name logical kernels: a primitive that runs a grid
    // inline (one chunk) must count the same launches, with the same
    // virtual threads, as one that spreads it over the pool.
    prop::check(
        "launch_stats_do_not_depend_on_worker_count",
        |rng| gens::vec_u32(rng, 0..6000, 0..300),
        shrinks::vec,
        |input| {
            let run = |workers: usize| {
                let exec = Executor::new(workers);
                let wide: Vec<usize> = input.iter().map(|&v| v as usize).collect();
                gmc_dpp::exclusive_scan(&exec, &wide);
                gmc_dpp::exclusive_scan_into(&exec, &wide, &mut Vec::new());
                gmc_dpp::reduce(&exec, &wide);
                gmc_dpp::select_if(&exec, input, |_, v| v % 3 == 0);
                gmc_dpp::select_indices(&exec, input, |_, v| v > 100);
                gmc_dpp::histogram_u32(&exec, input, 64);
                gmc_dpp::sort_pairs_u32(&exec, input, input);
                exec.stats()
            };
            let reference = run(1);
            for workers in [2, 8] {
                prop_assert_eq!(run(workers), reference.clone());
            }
            Ok(())
        },
    );
}

#[test]
fn inclusive_scan_matches_reference() {
    prop::check(
        "inclusive_scan_matches_reference",
        |rng| gens::vec_usize(rng, 0..2000, 0..1000),
        shrinks::vec,
        |input| {
            let exec = Executor::new(4);
            let scanned = gmc_dpp::inclusive_scan(&exec, input);
            let mut acc = 0usize;
            for (i, &v) in input.iter().enumerate() {
                acc += v;
                prop_assert_eq!(scanned[i], acc);
            }
            Ok(())
        },
    );
}

#[test]
fn select_is_stable_and_complete() {
    prop::check(
        "select_is_stable_and_complete",
        |rng| {
            (
                gens::vec_u32(rng, 0..2500, 0..100),
                rng.gen_range(0u32..100),
                executor_count(rng),
            )
        },
        |(input, threshold, workers)| {
            shrinks::vec(input)
                .into_iter()
                .map(|v| (v, *threshold, *workers))
                .collect()
        },
        |(input, threshold, workers)| {
            let exec = Executor::new(*workers);
            let selected = gmc_dpp::select_if(&exec, input, |_, v| v < *threshold);
            let expected: Vec<u32> = input.iter().copied().filter(|v| v < threshold).collect();
            prop_assert_eq!(selected, expected);
            Ok(())
        },
    );
}

#[test]
fn select_indices_are_sorted_and_correct() {
    prop::check(
        "select_indices_are_sorted_and_correct",
        |rng| gens::vec_u32(rng, 0..2000, 0..50),
        shrinks::vec,
        |input| {
            let exec = Executor::new(3);
            let indices = gmc_dpp::select_indices(&exec, input, |_, v| v % 3 == 0);
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
            for &i in &indices {
                prop_assert_eq!(input[i] % 3, 0);
            }
            let count = input.iter().filter(|&&v| v % 3 == 0).count();
            prop_assert_eq!(indices.len(), count);
            Ok(())
        },
    );
}

#[test]
fn sort_matches_std() {
    prop::check(
        "sort_matches_std",
        |rng| (gens::vec_any_u32(rng, 0..3000), executor_count(rng)),
        shrinks::pair(shrinks::vec, shrinks::none),
        |(input, workers)| {
            let exec = Executor::new(*workers);
            let sorted = gmc_dpp::sort_u32(&exec, input);
            let mut expected = input.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
            Ok(())
        },
    );
}

#[test]
fn pair_sort_is_a_stable_permutation() {
    prop::check(
        "pair_sort_is_a_stable_permutation",
        |rng| gens::vec_u32(rng, 0..2000, 0..64),
        shrinks::vec,
        |keys| {
            let exec = Executor::new(4);
            let values: Vec<u32> = (0..keys.len() as u32).collect();
            let (sorted_keys, sorted_values) = gmc_dpp::sort_pairs_u32(&exec, keys, &values);
            // Keys ascending.
            prop_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
            // Values are a permutation and stable within equal keys.
            let mut seen = vec![false; keys.len()];
            for w in sorted_values.windows(2) {
                if keys[w[0] as usize] == keys[w[1] as usize] {
                    prop_assert!(w[0] < w[1]);
                }
            }
            for (&k, &v) in sorted_keys.iter().zip(&sorted_values) {
                prop_assert_eq!(k, keys[v as usize]);
                prop_assert!(!std::mem::replace(&mut seen[v as usize], true));
            }
            Ok(())
        },
    );
}

#[test]
fn reduce_matches_sum() {
    prop::check(
        "reduce_matches_sum",
        |rng| gens::vec_usize(rng, 0..2000, 0..10_000),
        shrinks::vec,
        |input| {
            let exec = Executor::new(4);
            prop_assert_eq!(gmc_dpp::reduce(&exec, input), input.iter().sum::<usize>());
            Ok(())
        },
    );
}

#[test]
fn histogram_counts_everything() {
    prop::check(
        "histogram_counts_everything",
        |rng| gens::vec_u32(rng, 0..2000, 0..32),
        shrinks::vec,
        |input| {
            let exec = Executor::new(4);
            let hist = gmc_dpp::histogram_u32(&exec, input, 32);
            prop_assert_eq!(hist.iter().sum::<u64>() as usize, input.len());
            for (bin, &count) in hist.iter().enumerate() {
                let expected = input.iter().filter(|&&v| v as usize == bin).count() as u64;
                prop_assert_eq!(count, expected);
            }
            Ok(())
        },
    );
}

#[test]
fn memory_accounting_balances() {
    prop::check(
        "memory_accounting_balances",
        |rng| gens::vec_usize(rng, 0..50, 1..10_000),
        shrinks::vec,
        |charges| {
            let memory = gmc_dpp::DeviceMemory::new(usize::MAX);
            let total: usize = charges.iter().sum();
            {
                let guards: Vec<_> = charges
                    .iter()
                    .map(|&c| memory.try_charge(c).unwrap())
                    .collect();
                prop_assert_eq!(memory.live(), total);
                drop(guards);
            }
            prop_assert_eq!(memory.live(), 0);
            prop_assert_eq!(memory.peak(), total);
            Ok(())
        },
    );
}
