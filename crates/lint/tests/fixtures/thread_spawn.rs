// lint-fixture: crates/fjlt/src/violations.rs
// Ad-hoc threading is denied everywhere outside mpc::exec's audited
// executor: parallelism must flow through the deterministic executor.

fn rogue_parallelism() {
    let h = std::thread::spawn(|| 42); //~ DENY thread-spawn
    let b = thread::Builder::new(); //~ DENY thread-spawn
    std::thread::scope(|s| drop(s)); //~ DENY thread-spawn
    let _ = (h.join(), b);
}

fn sanctioned(items: Vec<u64>) -> Vec<u64> {
    treeemb_mpc::exec::par_map_indexed(items, 4, |_, x| x + 1)
}
