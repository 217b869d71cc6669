// lint-fixture: crates/geom/src/violations.rs
// Struct-literal construction of the config types bypasses their
// constructors' validation and is denied outside their defining modules.

fn literal_configs() {
    let m = MpcConfig { //~ DENY config-literal
        input_words: 64,
        num_machines: 4,
    };
    let p = PipelineConfig { //~ DENY config-literal
        xi: 0.5,
    };
    let _ = (m, p);
}

fn builders_ok() {
    let m = MpcConfig::explicit(64, 16, 4).with_threads(2);
    let p = PipelineConfig::builder().xi(0.5).build();
    // Type positions and impls never trip the heuristic:
    let _: Option<MpcConfig> = None;
    let _ = (m, p);
}

impl MpcConfigExt for MpcConfig {
    fn describe(&self) -> String {
        String::new()
    }
}
