// lint-fixture: crates/apps/src/violations.rs
// The deprecated construction/mutation shims, the second and third
// partition-key paths, the parallel pair audits, the fault-plan JSON
// parser and the runtime knobs with no observable effect (checkpoint
// policy, env overrides, simulated backoff, stragglers, lenient capacity
// metering), the persistent
// worker pool's protocol and in-place for-each, the sort-based dedup, and
// the substrate nothing called (sample sort, distance oracle, per-label
// aggregation, machine-scoped squeezes, uncalled tree and config helpers)
// and the library items only their own unit tests called (the dense JL
// baseline, paper-name aliases, one-thread parallel variants, uncalled
// generators and helpers), the second fault vocabulary and the duplicate
// fault that acted exactly like a drop, the misnamed `dense` module, the
// second path to a covering ball's lattice coordinates, the grid
// baseline's second schedule and level type, and the copy of the
// SplitMix64 mixer were deleted; the lint keeps them from coming back —
// even in test code.

fn resurrect() {
    let mut rt = Runtime::new(cfg()); //~ DENY deprecated-shim
    rt.set_fault_plan(plan()); //~ DENY deprecated-shim
    rt.clear_fault_plan(); //~ DENY deprecated-shim
}

fn resurrect_partition_keys(lvl: &HybridLevel, p: &[f64]) {
    let key: Option<PackedLevelKey> = None; //~ DENY deprecated-shim
    let _ = lvl.assign_packed(p); //~ DENY deprecated-shim
    let mut h = PackedHasher::new(); //~ DENY deprecated-shim
    let _ = SeqEmbedder::new(params()).embed_exact_keys(&ps(), 1, 1); //~ DENY deprecated-shim
}

fn resurrect_parallel_audits(emb: &Embedding, ps: &PointSet) {
    let _ = distortion_report_parallel(ps, ps, 2); //~ DENY deprecated-shim
    let _ = check_domination_parallel(emb, ps, 2); //~ DENY deprecated-shim
}

fn resurrect_fault_json(text: &str) {
    let _ = treeemb_mpc::fault::json::parse(text); //~ DENY deprecated-shim
}

fn resurrect_env_layer() -> treeemb_mpc::EnvOverrides { //~ DENY deprecated-shim
    treeemb_mpc::from_env() //~ DENY deprecated-shim
}

fn resurrect_unobservable_knobs(mut plan: FaultPlan, rates: FaultRates) {
    let _ = Runtime::builder().checkpoint(CheckpointPolicy::Always); //~ DENY deprecated-shim
    plan.backoff_ns = 1_000; //~ DENY deprecated-shim
    let _ = rates.straggle_ns; //~ DENY deprecated-shim
    let _ = MpcConfig::explicit(64, 16, 4).lenient(); //~ DENY deprecated-shim
}

fn resurrect_worker_pool(items: &mut [u64], rt: &mut Runtime, d: Dist<u64>) {
    treeemb_mpc::exec::par_for_each_mut(items, 2, |_, x| *x += 1); //~ DENY deprecated-shim
    let pool = PoolCore::<usize>::new(); //~ DENY deprecated-shim
    let job = JobCore::new(8, 2); //~ DENY deprecated-shim
    let _ = sort_dedup_by_key(rt, d, |x| *x); //~ DENY deprecated-shim
}

fn resurrect_uncalled_substrate(rt: &mut Runtime, d: Dist<u64>, t: &Hst, m: &Metrics) {
    let _ = treeemb_mpc::primitives::sort::sort_by_key(rt, d, |x| *x); //~ DENY deprecated-shim
    let _ = sort_two_level(rt, d, |x| *x); //~ DENY deprecated-shim
    let _ = sort_single_level(rt, d, |x| *x); //~ DENY deprecated-shim
    let _ = DistanceOracle::new(t); //~ DENY deprecated-shim
    let _: LabelStats = todo!(); //~ DENY deprecated-shim
    let _ = m.by_label(); //~ DENY deprecated-shim
    let _ = plan().squeeze_for(0, 1); //~ DENY deprecated-shim
    let _ = plan().squeeze_min(0); //~ DENY deprecated-shim
    let _ = t.distance_matrix(); //~ DENY deprecated-shim
    let _ = t.nodes_at_depth(1); //~ DENY deprecated-shim
    let _ = t.to_ascii(); //~ DENY deprecated-shim
    let _ = rt.config().total_space_words(); //~ DENY deprecated-shim
}

fn resurrect_uncalled_library(ps: &mut PointSet, f: &Fjlt, m: &CscMatrix, emb: &Embedding) {
    let _ = treeemb_fjlt::dense::gaussian_jl(ps, 8, 1); //~ DENY deprecated-shim
    let _ = dense_work(4, 8, 2); //~ DENY deprecated-shim
    let _ = f.apply_parallel(ps, 2); //~ DENY deprecated-shim
    let _ = estimate_expected_distortion_threads(ps, 4, 2, build); //~ DENY deprecated-shim
    let grids = build_grids(2, 1.0, 16, 1); //~ DENY deprecated-shim
    let _ = ball_part(ps, &grids); //~ DENY deprecated-shim
    let _ = grid_partition(ps, 4.0, 1); //~ DENY deprecated-shim
    let _ = empirical_partition_diameter(&rows(), &level()); //~ DENY deprecated-shim
    let _ = generators::hypercube_corners(8, 4, 16, 1); //~ DENY deprecated-shim
    let _ = generators::exponential_scales(4, 2, 1); //~ DENY deprecated-shim
    ps.point_mut(0)[0] = 1.0; //~ DENY deprecated-shim
    ps.affine(1.0, 0.5); //~ DENY deprecated-shim
    let _ = treeemb_linalg::random::derived_rng(1, 2); //~ DENY deprecated-shim
    let _ = m.to_dense(); //~ DENY deprecated-shim
    let _ = measured_min_sep(ps); //~ DENY deprecated-shim
    let _ = tree_mst_cost_in_tree_metric(emb); //~ DENY deprecated-shim
}

fn resurrect_fault_vocabulary(plan: &FaultPlan, e: &FaultEvent) {
    let _: Option<FaultKind> = None; //~ DENY deprecated-shim
    let _ = plan.msg_fault(0, 0, 1, 2); //~ DENY deprecated-shim
    let _ = plan.clone().with_fault(FaultSpec::Duplicate { //~ DENY deprecated-shim
        round: 0,
        attempt: 0,
        src: 1,
        msg_index: 2,
    });
    let _ = treeemb_fjlt::dense::target_dimension(64, 0.5); //~ DENY deprecated-shim
}

fn resurrect_second_cell_path(grids: &GridSequence, p: &[f64]) {
    grids.covering_cell(0, p, |_| {}); //~ DENY deprecated-shim
}

fn resurrect_second_schedule(ps: &PointSet) {
    let _ = GridParams::for_dataset(ps); //~ DENY deprecated-shim
    let _ = treeemb_partition::hybrid::GridLikeLevel::new(2, 1.0, 3); //~ DENY deprecated-shim
    let _ = treeemb_mpc::cluster::mix_seed(1, 2); //~ DENY deprecated-shim
}

fn sanctioned_fault_vocabulary(plan: &FaultPlan, e: &FaultEvent) {
    let _ = plan.dropped(0, 0, 1, 2);
    let _ = matches!(e, FaultEvent::Injected(FaultSpec::Drop { .. }));
    let _ = FaultSpec::Crash { round: 0, attempt: 0, machine: 1 }.name();
    let _ = HstError::DuplicatePoint(3);
}

fn sanctioned_library(ps: &PointSet, f: &Fjlt, grids: &GridSequence, emb: &Embedding) {
    let _ = GridEmbedder::for_dataset(ps);
    let _ = treeemb_linalg::random::mix2(1, 2);
    let _ = treeemb_fjlt::fjlt::target_dimension(ps.len(), 0.5);
    let _ = f.apply(ps);
    let _ = estimate_expected_distortion(ps, 4, build);
    let _ = grids.assign(ps.point(0));
    let _ = tree_mst(emb, ps);
}

fn sanctioned_substrate(rt: &mut Runtime, d: Dist<u64>, mut v: Vec<u64>) {
    v.sort_by_key(|x| *x);
    let _ = treeemb_mpc::primitives::shuffle::group_fold(rt, d, |x| *x, |_, g| g.len());
}

fn sanctioned_json(text: &str) {
    let _ = treeemb_obs::json::parse(text);
    let _ = FaultPlan::from_json(text);
}

fn sanctioned_audits(emb: &Embedding, ps: &PointSet) {
    let _ = distortion_report(ps, ps);
    let _ = check_domination(emb, ps);
}

fn sanctioned_node_ids(levels: &[HybridLevel], p: &[f64]) {
    let _ = for_each_node_id(levels, p, |_, _| {});
}

fn sanctioned() {
    let _rt = Runtime::builder()
        .config(MpcConfig::explicit(64, 16, 4))
        .fault_plan(plan())
        .build();
}

#[cfg(test)]
mod tests {
    #[test]
    fn also_denied_in_tests() {
        let rt = Runtime::new(cfg()); //~ DENY deprecated-shim
        let _ = rt;
    }
}
