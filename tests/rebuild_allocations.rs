//! A comment-only `Delta` rebuild allocates in proportion to the
//! edited unit, not to the program. A counting global allocator (its
//! counter is thread-local, and `jobs: 1` keeps every stage on the
//! calling thread) watches a comment-only rebuild of each subsystem
//! unit of the 20-unit, 85-assertion kernel corpus. Copying the linked
//! assertion table and re-hashing every assertion for the delta keys
//! cost about 980 of a rebuild's 1 690–1 785 allocations; sharing
//! assertions by `Arc` and reading the keys from the kept merge's
//! per-unit index leaves 715–800: the edited unit's compile and weave
//! and the link of all 21 functions.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use tesla::corpus::kernel_like;
use tesla::pipeline::{BuildOptions, BuildSystem};

/// The most allocations one comment-only rebuild may make.
const MAX_ALLOCS: u64 = 1_000;

#[test]
fn comment_only_delta_rebuild_allocates_for_the_edited_unit() {
    let project = kernel_like(20, 85);
    let files: Vec<String> = project
        .units
        .iter()
        .map(|u| u.file.clone())
        .filter(|f| f.starts_with("subsys/unit"))
        .collect();
    assert_eq!(files.len(), 19);
    let mut bs = BuildSystem::new(
        project,
        BuildOptions {
            jobs: 1,
            ..BuildOptions::delta_toolchain()
        },
    );
    bs.build().unwrap();
    let mut counts = Vec::with_capacity(files.len());
    for file in &files {
        bs.touch(file);
        let mut rewoven = 0;
        let allocs = allocations_during(|| {
            rewoven = bs.build().unwrap().stats.instrumented_units;
        });
        assert_eq!(rewoven, 1, "{file}");
        counts.push((file.as_str(), allocs));
    }
    let worst = counts.iter().map(|&(_, n)| n).max().unwrap();
    assert!(
        worst <= MAX_ALLOCS,
        "allocations per comment-only rebuild: {counts:?}"
    );
}
